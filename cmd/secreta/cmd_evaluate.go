package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/experiment"
	"secreta/internal/export"
	"secreta/internal/metrics"
	"secreta/internal/plot"
	"secreta/internal/policy"
	"secreta/internal/query"
)

// cmdEvaluate is the Evaluation mode: configure one method, run it, show
// the result summary and the four plot families of Figure 3, and export.
func cmdEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	data := fs.String("data", "", "dataset CSV path")
	trans := fs.String("trans", "", "transaction column name (when not annotated)")
	algo := fs.String("algo", "cluster+apriori/rmerger", "algorithm: rel | trans | rel+trans[/flavor]")
	k := fs.Int("k", 5, "k-anonymity parameter")
	m := fs.Int("m", 2, "k^m-anonymity itemset size")
	delta := fs.Float64("delta", 0.3, "RT merge slack")
	qis := fs.String("qis", "", "comma-separated QI attributes (default: all relational)")
	hierDir := fs.String("hierarchies", "", "directory of per-attribute hierarchy CSVs (default: auto-generate)")
	fanout := fs.Int("fanout", 4, "auto-generated hierarchy fanout")
	workloadPath := fs.String("workload", "", "query workload path (enables ARE)")
	privPath := fs.String("privacy", "", "privacy policy path (COAT/PCTA)")
	utilPath := fs.String("utility", "", "utility policy path (COAT)")
	rho := fs.Float64("rho", 0.5, "confidence bound for the rho extension algorithm")
	sensitive := fs.String("sensitive", "", "comma-separated sensitive items (rho extension)")
	outData := fs.String("out", "", "write the anonymized dataset CSV here")
	outJSON := fs.String("results", "", "write the run result JSON here")
	stream := fs.String("stream", "", "stream anonymized records to stdout as they are encoded: ndjson | csv (summary moves to stderr)")
	plotAttr := fs.String("plot-attr", "", "plot generalized value frequencies of this attribute")
	plotItems := fs.Bool("plot-items", false, "plot per-item relative frequency error")
	plotPhases := fs.Bool("plot-phases", false, "plot the phase runtime breakdown")
	varyParam := fs.String("vary", "", "varying-parameter execution: k, m or delta")
	varyStart := fs.Float64("start", 0, "sweep start")
	varyEnd := fs.Float64("end", 0, "sweep end")
	varyStep := fs.Float64("step", 1, "sweep step")
	svgOut := fs.String("svg", "", "write the sweep/frequency chart as SVG here")
	workers := fs.Int("workers", 0, "parallel anonymization workers (0: auto)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := loadDataset(*data, *trans)
	if err != nil {
		return err
	}
	cfg, err := buildConfig(ds, *algo, *k, *m, *delta, *qis, *hierDir, *fanout, *workloadPath, *privPath, *utilPath)
	if err != nil {
		return err
	}
	cfg.Rho = *rho
	cfg.Sensitive = splitList(*sensitive)

	if *stream != "" && *stream != "ndjson" && *stream != "csv" {
		return fmt.Errorf("unknown -stream format %q (want ndjson or csv)", *stream)
	}
	if *stream != "" && *varyParam != "" {
		return fmt.Errorf("-stream applies to single runs; a -vary sweep has no single anonymized dataset to stream")
	}

	ctx, stop := signalContext()
	defer stop()
	// No result cache here: sweep points must be independently executed
	// so reported runtimes are measured, never copied from a cache hit.
	sched := engine.NewScheduler(*workers, nil)

	if *varyParam != "" {
		sweep := experiment.Sweep{Param: *varyParam, Start: *varyStart, End: *varyEnd, Step: *varyStep}
		series, err := experiment.VaryingRunCtx(ctx, engine.NewInput(ds), cfg, sweep, sched)
		if err != nil {
			return err
		}
		printSeriesTable([]*experiment.Series{series})
		chart := seriesChart([]*experiment.Series{series}, *varyParam, "ARE",
			func(i engine.Indicators) float64 { return i.ARE })
		fmt.Print(chart.ASCII(78, 16))
		if *svgOut != "" {
			if err := export.ChartSVG(*svgOut, chart, 640, 420); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *svgOut)
		}
		return nil
	}

	results, err := sched.RunAll(ctx, engine.NewInput(ds), []engine.Config{cfg})
	if err != nil {
		return err
	}
	res := results[0]
	if res.Err != nil {
		return res.Err
	}
	// With -stream, stdout belongs to the record stream (pipeable into
	// files or other tools); the human-facing summary moves to stderr.
	summary := os.Stdout
	if *stream != "" {
		summary = os.Stderr
	}
	printSummary(summary, res)

	if *stream != "" {
		var err error
		switch *stream {
		case "ndjson":
			err = export.RecordsNDJSON(os.Stdout, res.Records)
		case "csv":
			err = export.RecordsCSV(os.Stdout, res.Records, dataset.Options{})
		}
		if err != nil {
			return fmt.Errorf("streaming anonymized records: %w", err)
		}
	}

	if *outData != "" {
		if err := res.Anonymized().SaveFile(*outData, dataset.Options{}); err != nil {
			return err
		}
		fmt.Fprintf(summary, "anonymized dataset -> %s\n", *outData)
	}
	if *outJSON != "" {
		if err := export.ResultsJSONFile(*outJSON, []*engine.Result{res}); err != nil {
			return err
		}
		fmt.Fprintf(summary, "results -> %s\n", *outJSON)
	}
	if *plotAttr != "" {
		i := ds.AttrIndex(*plotAttr)
		if i < 0 {
			return fmt.Errorf("no attribute named %q", *plotAttr)
		}
		freqs := metrics.GeneralizedFrequencies(res.Anonymized(), i)
		if len(freqs) > 15 {
			freqs = freqs[:15]
		}
		labels := make([]string, len(freqs))
		values := make([]float64, len(freqs))
		for j, f := range freqs {
			labels[j], values[j] = f.Value, float64(f.Count)
		}
		chart := plot.NewBar("generalized frequencies of "+*plotAttr, *plotAttr, "count", labels, values)
		fmt.Fprint(summary, chart.ASCII(78, 14))
		if *svgOut != "" {
			if err := export.ChartSVG(*svgOut, chart, 640, 420); err != nil {
				return err
			}
		}
	}
	if *plotItems && cfg.ItemHierarchy != nil {
		ves := metrics.ItemFrequencyError(ds, res.Anonymized(), cfg.ItemHierarchy)
		if len(ves) > 20 {
			ves = ves[:20]
		}
		labels := make([]string, len(ves))
		values := make([]float64, len(ves))
		for j, ve := range ves {
			labels[j], values[j] = ve.Value, ve.RelError
		}
		chart := plot.NewBar("item frequency relative error", "item", "rel. error", labels, values)
		fmt.Fprint(summary, chart.ASCII(78, 14))
	}
	if *plotPhases {
		labels := make([]string, len(res.Phases))
		values := make([]float64, len(res.Phases))
		for j, p := range res.Phases {
			labels[j] = p.Name
			values[j] = float64(p.Duration) / float64(time.Millisecond)
		}
		chart := plot.NewBar("phase runtime", "phase", "ms", labels, values)
		fmt.Fprint(summary, chart.ASCII(78, 12))
	}
	return nil
}

// buildConfig assembles an engine.Config from CLI flags.
func buildConfig(ds *dataset.Dataset, algo string, k, m int, delta float64, qis, hierDir string, fanout int, workloadPath, privPath, utilPath string) (engine.Config, error) {
	cfg, err := engine.ConfigFromSpec(algo)
	if err != nil {
		return engine.Config{}, err
	}
	cfg.K, cfg.M, cfg.Delta, cfg.QIs = k, m, delta, splitList(qis)
	if cfg.Mode != engine.Transactional {
		cfg.Hierarchies, err = loadHierarchies(ds, hierDir, fanout)
		if err != nil {
			return engine.Config{}, err
		}
	}
	if cfg.Mode != engine.Relational && ds.HasTransaction() {
		cfg.ItemHierarchy, err = loadItemHierarchy(ds, hierDir, fanout)
		if err != nil {
			return engine.Config{}, err
		}
	}
	if workloadPath != "" {
		cfg.Workload, err = query.LoadFile(workloadPath)
		if err != nil {
			return engine.Config{}, err
		}
	}
	if privPath != "" || utilPath != "" {
		pol := &policy.Policy{}
		if privPath != "" {
			if pol.Privacy, err = policy.LoadPrivacyFile(privPath); err != nil {
				return engine.Config{}, err
			}
		}
		if utilPath != "" {
			if pol.Utility, err = policy.LoadUtilityFile(utilPath); err != nil {
				return engine.Config{}, err
			}
		}
		cfg.Policy = pol
	}
	return cfg, nil
}

// printSummary renders the Evaluation mode's "message box with a summary of
// results" to w (stdout normally, stderr when -stream owns stdout).
func printSummary(w io.Writer, res *engine.Result) {
	ind := res.Indicators
	fmt.Fprintf(w, "configuration : %s\n", res.Config.DisplayLabel())
	fmt.Fprintf(w, "runtime       : %v\n", res.Runtime.Round(time.Microsecond))
	for _, p := range res.Phases {
		fmt.Fprintf(w, "  phase %-12s %v\n", p.Name, p.Duration.Round(time.Microsecond))
	}
	if res.Config.Mode != engine.Transactional {
		fmt.Fprintf(w, "GCP           : %.4f\n", ind.GCP)
		fmt.Fprintf(w, "discernibility: %.0f\n", ind.Discernibility)
		fmt.Fprintf(w, "CAVG          : %.3f\n", ind.CAVG)
		fmt.Fprintf(w, "suppression   : %.2f%%\n", 100*ind.SuppressionRatio)
		fmt.Fprintf(w, "classes       : %d (min size %d)\n", ind.Classes, ind.MinClassSize)
		fmt.Fprintf(w, "k-anonymous   : %v\n", ind.KAnonymous)
	}
	if res.Config.Mode != engine.Relational {
		fmt.Fprintf(w, "trans. GCP    : %.4f\n", ind.TransactionGCP)
		fmt.Fprintf(w, "k^m-anonymous : %v\n", ind.KMAnonymous)
	}
	if res.Config.Workload != nil {
		fmt.Fprintf(w, "ARE           : %.4f\n", ind.ARE)
	}
}

// printSeriesTable prints sweep results row by row.
func printSeriesTable(series []*experiment.Series) {
	fmt.Printf("%-28s %8s %10s %10s %10s %10s\n", "series", "x", "ARE", "GCP", "tGCP", "time")
	for _, s := range series {
		for _, p := range s.Points {
			if p.Err != nil {
				fmt.Printf("%-28s %8.3g %s\n", s.Label, p.X, "error: "+p.Err.Error())
				continue
			}
			fmt.Printf("%-28s %8.3g %10.4f %10.4f %10.4f %9.1fms\n",
				s.Label, p.X, p.Indicators.ARE, p.Indicators.GCP,
				p.Indicators.TransactionGCP, float64(p.Runtime)/float64(time.Millisecond))
		}
	}
}

// seriesChart builds a line chart of one indicator across series.
func seriesChart(series []*experiment.Series, xlabel, ylabel string, sel func(engine.Indicators) float64) *plot.Chart {
	var ps []plot.Series
	for _, s := range series {
		var xs, ys []float64
		for _, p := range s.Points {
			if p.Err != nil {
				continue
			}
			xs = append(xs, p.X)
			ys = append(ys, sel(p.Indicators))
		}
		ps = append(ps, plot.Series{Label: s.Label, Xs: xs, Ys: ys})
	}
	return plot.NewLine(ylabel+" vs "+xlabel, xlabel, ylabel, ps...)
}
