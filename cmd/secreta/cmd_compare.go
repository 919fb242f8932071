package main

import (
	"flag"
	"fmt"

	"secreta/internal/engine"
	"secreta/internal/experiment"
	"secreta/internal/export"
	"secreta/internal/plot"
)

// cmdCompare is the Comparison mode: several configurations run over the
// same parameter sweep; the results are tabulated, plotted and exportable.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	data := fs.String("data", "", "dataset CSV path")
	trans := fs.String("trans", "", "transaction column name (when not annotated)")
	configs := fs.String("configs", "cluster+apriori/rmerger,cluster+coat/tmerger",
		"comma-separated algorithm specs (rel | trans | rel+trans[/flavor])")
	k := fs.Int("k", 5, "fixed k (when not swept)")
	m := fs.Int("m", 2, "fixed m (when not swept)")
	delta := fs.Float64("delta", 0.3, "fixed delta (when not swept)")
	qis := fs.String("qis", "", "comma-separated QI attributes")
	hierDir := fs.String("hierarchies", "", "directory of hierarchy CSVs (default: auto-generate)")
	fanout := fs.Int("fanout", 4, "auto-generated hierarchy fanout")
	workloadPath := fs.String("workload", "", "query workload path (enables ARE)")
	privPath := fs.String("privacy", "", "privacy policy path (COAT/PCTA)")
	utilPath := fs.String("utility", "", "utility policy path (COAT)")
	vary := fs.String("vary", "k", "sweep parameter: k, m or delta")
	start := fs.Float64("start", 2, "sweep start")
	end := fs.Float64("end", 25, "sweep end")
	step := fs.Float64("step", 5, "sweep step")
	metric := fs.String("metric", "are", "plotted indicator: are | gcp | tgcp | runtime")
	csvOut := fs.String("csv", "", "write sweep results CSV here")
	svgOut := fs.String("svg", "", "write the comparison chart SVG here")
	workers := fs.Int("workers", 0, "parallel anonymization workers (0: auto)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := loadDataset(*data, *trans)
	if err != nil {
		return err
	}
	var bases []engine.Config
	for _, spec := range splitList(*configs) {
		cfg, err := buildConfig(ds, spec, *k, *m, *delta, *qis, *hierDir, *fanout, *workloadPath, *privPath, *utilPath)
		if err != nil {
			return fmt.Errorf("config %q: %w", spec, err)
		}
		cfg.Label = spec
		bases = append(bases, cfg)
	}
	ctx, stop := signalContext()
	defer stop()
	sweep := experiment.Sweep{Param: *vary, Start: *start, End: *end, Step: *step}
	// Uncached: the runtime metric must reflect real executions.
	series, err := experiment.CompareCtx(ctx, engine.NewInput(ds), bases, sweep,
		engine.NewScheduler(*workers, nil))
	if err != nil {
		return err
	}
	printSeriesTable(series)

	sel, ylabel, err := metricSelector(*metric)
	if err != nil {
		return err
	}
	var chart = seriesChart(series, *vary, ylabel, sel)
	if *metric == "runtime" {
		chart = runtimeChart(series, *vary)
	}
	fmt.Print(chart.ASCII(78, 16))
	if *csvOut != "" {
		if err := export.SeriesCSVFile(*csvOut, series); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvOut)
	}
	if *svgOut != "" {
		if err := export.ChartSVG(*svgOut, chart, 640, 420); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}
	return nil
}

func metricSelector(name string) (func(engine.Indicators) float64, string, error) {
	switch name {
	case "are":
		return func(i engine.Indicators) float64 { return i.ARE }, "ARE", nil
	case "gcp":
		return func(i engine.Indicators) float64 { return i.GCP }, "GCP", nil
	case "tgcp":
		return func(i engine.Indicators) float64 { return i.TransactionGCP }, "transaction GCP", nil
	case "runtime":
		return func(engine.Indicators) float64 { return 0 }, "runtime (s)", nil
	}
	return nil, "", fmt.Errorf("unknown metric %q (want are, gcp, tgcp or runtime)", name)
}

func runtimeChart(series []*experiment.Series, xlabel string) *plot.Chart {
	var ps []plot.Series
	for _, s := range series {
		var xs, ys []float64
		for _, p := range s.Points {
			if p.Err != nil {
				continue
			}
			xs = append(xs, p.X)
			ys = append(ys, p.Runtime.Seconds())
		}
		ps = append(ps, plot.Series{Label: s.Label, Xs: xs, Ys: ys})
	}
	return plot.NewLine("runtime vs "+xlabel, xlabel, "seconds", ps...)
}
