// Quickstart: generate a small RT-dataset, anonymize it with the default
// combination (Cluster for the relational attributes, Apriori for the
// transaction attribute, Rmerger bounding), and verify + summarize the
// result. This is the minimal end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"secreta/internal/engine"
	"secreta/internal/gen"
	"secreta/internal/privacy"
	"secreta/internal/rt"
)

func main() {
	// 1. Data: 500 census-like records with a purchased-items attribute.
	ds := gen.Census(gen.Config{Records: 500, Items: 25, Seed: 7})
	fmt.Printf("dataset: %d records, %d relational attributes, %d distinct items\n",
		ds.Len(), len(ds.Attrs), ds.SummarizeTransactions().DistinctItems)

	// 2. Hierarchies: derived from the data (Configuration Editor's
	// automatic path).
	hs, err := gen.Hierarchies(ds, 4)
	if err != nil {
		log.Fatal(err)
	}
	ih, err := gen.ItemHierarchy(ds, 2)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Anonymize: (k, k^m)-anonymity with k=10, m=2.
	res := engine.Run(ds, engine.Config{
		Mode:    engine.RT,
		RelAlgo: "cluster", TransAlgo: "apriori", Flavor: rt.RMerge,
		K: 10, M: 2, Delta: 0.2,
		Hierarchies: hs, ItemHierarchy: ih,
	})
	if res.Err != nil {
		log.Fatal(res.Err)
	}

	// 4. Verify and report.
	qis, err := ds.QIIndices(nil)
	if err != nil {
		log.Fatal(err)
	}
	anon := res.Anonymized()
	rep := privacy.CheckRT(anon, qis, 10, 2)
	fmt.Printf("anonymized in %v: (k,k^m)-anonymous=%v, classes=%d (min size %d)\n",
		res.Runtime, rep.Holds(), res.Indicators.Classes, res.Indicators.MinClassSize)
	fmt.Printf("relational loss (GCP) = %.4f, transaction loss = %.4f\n",
		res.Indicators.GCP, res.Indicators.TransactionGCP)

	fmt.Println("\nfirst three records, before -> after:")
	for r := 0; r < 3; r++ {
		fmt.Printf("  %v %v\n    -> %v %v\n",
			ds.Records[r].Values, ds.Records[r].Items,
			anon.Records[r].Values, anon.Records[r].Items)
	}
}
