// Evaluation-mode example (the paper's Figure 3 scenario): configure one
// method for an RT-dataset, run it with fixed parameters, inspect the
// summary, then run a varying-parameter execution (ARE vs delta) and render
// the plot the Evaluation mode's plotting area would show.
package main

import (
	"fmt"
	"log"
	"time"

	"secreta/internal/engine"
	"secreta/internal/experiment"
	"secreta/internal/gen"
	"secreta/internal/metrics"
	"secreta/internal/plot"
	"secreta/internal/query"
	"secreta/internal/rt"
)

func main() {
	ds := gen.Census(gen.Config{Records: 600, Items: 24, Seed: 11})
	hs, err := gen.Hierarchies(ds, 4)
	if err != nil {
		log.Fatal(err)
	}
	ih, err := gen.ItemHierarchy(ds, 2)
	if err != nil {
		log.Fatal(err)
	}
	// Workload over the transaction attribute, the side delta trades.
	w, err := query.Generate(ds, query.GenOptions{Queries: 60, Dims: -1, Items: 1, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}

	cfg := engine.Config{
		Mode:    engine.RT,
		RelAlgo: "topdown", TransAlgo: "apriori", Flavor: rt.RTMerge,
		K: 8, M: 2, Delta: 0.25,
		Hierarchies: hs, ItemHierarchy: ih, Workload: w,
	}

	// --- Single-parameter execution: the "message box" summary.
	res := engine.Run(ds, cfg)
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	fmt.Printf("configuration: %s\n", cfg.DisplayLabel())
	fmt.Printf("runtime %v, phases:\n", res.Runtime.Round(time.Microsecond))
	for _, p := range res.Phases {
		fmt.Printf("  %-12s %v\n", p.Name, p.Duration.Round(time.Microsecond))
	}
	fmt.Printf("GCP=%.4f  tGCP=%.4f  ARE=%.4f  classes=%d\n\n",
		res.Indicators.GCP, res.Indicators.TransactionGCP,
		res.Indicators.ARE, res.Indicators.Classes)

	// Plot (c): frequencies of generalized values in Age.
	ai := ds.AttrIndex("Age")
	freqs := metrics.GeneralizedFrequencies(res.Anonymized(), ai)
	if len(freqs) > 8 {
		freqs = freqs[:8]
	}
	labels := make([]string, len(freqs))
	values := make([]float64, len(freqs))
	for i, f := range freqs {
		labels[i], values[i] = f.Value, float64(f.Count)
	}
	fmt.Print(plot.NewBar("generalized Age frequencies", "Age", "count", labels, values).ASCII(76, 12))

	// --- Varying-parameter execution: ARE vs delta (Fig. 3 plot (a)).
	series, err := experiment.VaryingRun(ds, cfg,
		experiment.Sweep{Param: "delta", Start: 0, End: 0.5, Step: 0.1}, 0)
	if err != nil {
		log.Fatal(err)
	}
	chart := plot.NewLine("ARE vs delta (k=8, m=2)", "delta", "ARE", plot.Series{
		Label: series.Label,
		Xs:    series.Xs(),
		Ys:    series.Ys(func(i engine.Indicators) float64 { return i.ARE }),
	})
	fmt.Print(chart.ASCII(76, 14))
}
