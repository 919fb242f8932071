// Healthcare scenario: an RT-dataset of patient demographics (relational)
// plus diagnosis codes (transaction) must be published so that an attacker
// who knows a patient's demographics and up to two diagnoses cannot
// re-identify them — the (k, k^m)-anonymity model of Poulis et al. The
// example builds the dataset from raw CSV (as a hospital export would be),
// compares the three bounding methods, and shows how each trades relational
// against transaction utility.
package main

import (
	"fmt"
	"log"
	"strings"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/gen"
	"secreta/internal/metrics"
	"secreta/internal/privacy"
	"secreta/internal/rt"
)

// patientCSV is a miniature hospital export: demographics + ICD-ish codes.
// The generator extends it to a realistic size below.
const patientCSV = `Age:numeric,Gender:categorical,Zip:categorical,Diagnoses:transaction
34,F,30011,C50 E11
41,M,30012,I10
29,F,30013,E11 I10
56,M,30011,C50
34,F,30012,E11
`

func main() {
	// Parse the raw export to show the CSV path, then switch to a larger
	// generated cohort for the actual experiment.
	small, err := dataset.ReadCSV(strings.NewReader(patientCSV), dataset.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("raw export: %d patients, attributes %v + %s\n\n",
		small.Len(), small.AttrNames(), small.TransName)

	ds := gen.Census(gen.Config{Records: 800, Items: 30, MaxBasket: 4, Seed: 23})
	if err := ds.RenameAttribute("Items", "Diagnoses"); err != nil {
		log.Fatal(err)
	}
	hs, err := gen.Hierarchies(ds, 4)
	if err != nil {
		log.Fatal(err)
	}
	ih, err := gen.ItemHierarchy(ds, 2)
	if err != nil {
		log.Fatal(err)
	}
	qis, err := ds.QIIndices(nil)
	if err != nil {
		log.Fatal(err)
	}

	const k, m = 10, 2
	fmt.Printf("cohort: %d patients; target: (%d, %d^%d)-anonymity\n", ds.Len(), k, k, m)
	fmt.Printf("%-10s %10s %10s %10s %8s %8s\n", "bounding", "GCP", "tGCP", "classes", "merges", "ok")
	for _, flavor := range []rt.Flavor{rt.RMerge, rt.TMerge, rt.RTMerge} {
		res := engine.Run(ds, engine.Config{
			Mode: engine.RT, RelAlgo: "cluster", TransAlgo: "apriori", Flavor: flavor,
			K: k, M: m, Delta: 0.2,
			Hierarchies: hs, ItemHierarchy: ih,
		})
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		rep := privacy.CheckRT(res.Anonymized(), qis, k, m)
		fmt.Printf("%-10s %10.4f %10.4f %10d %8s %8v\n",
			flavor, res.Indicators.GCP, res.Indicators.TransactionGCP,
			res.Indicators.Classes, "-", rep.Holds())
	}

	// Show the per-diagnosis distortion the epidemiologist would care
	// about, for the Rmerger output.
	res := engine.Run(ds, engine.Config{
		Mode: engine.RT, RelAlgo: "cluster", TransAlgo: "apriori", Flavor: rt.RMerge,
		K: k, M: m, Delta: 0.2,
		Hierarchies: hs, ItemHierarchy: ih,
	})
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	ves := metrics.ItemFrequencyError(ds, res.Anonymized(), ih)
	mean := 0.0
	for _, ve := range ves {
		mean += ve.RelError
	}
	mean /= float64(len(ves))
	fmt.Printf("\nper-diagnosis frequency distortion (Rmerger): mean relative error %.4f over %d codes\n",
		mean, len(ves))
}
