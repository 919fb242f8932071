// Command secreta-bench is the experiment harness of this reproduction: it
// regenerates, as printed tables and series, the analytical outputs behind
// every figure of the SECRETA demo paper. The experiments E1-E10 are
// defined once, in internal/experiment (paper.go); docs/PERFORMANCE.md
// indexes them and records measured results.
//
//	secreta-bench -exp all            # run everything
//	secreta-bench -exp E2 -records 800
//
// It is also the perf-tracking workhorse (harness.go): `secreta-bench
// run` executes the scripts/paper/experiments.json grid into a
// timestamped paper_runs/ folder, `secreta-bench compare` gates a fresh
// measurement against a tracked baseline, and `secreta-bench parse`
// turns raw `go test -bench` output into the flat BENCH_n.json format.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"secreta/internal/experiment"
	"secreta/internal/gen"
)

func main() {
	if runHarnessCommand(os.Args) {
		return
	}
	d := experiment.DefaultData
	expFlag := flag.String("exp", "all", "experiment id (E1..E10) or 'all'")
	records := flag.Int("records", d.Records, "dataset size")
	items := flag.Int("items", d.Items, "item domain size")
	seed := flag.Int64("seed", d.Seed, "random seed")
	flag.Parse()

	env, err := experiment.NewEnv(gen.Config{Records: *records, Items: *items, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	ran, err := printExperiments(os.Stdout, env, *expFlag)
	if err != nil {
		fatal(err)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
}

// printExperiments prints the experiment whose ID is want ("all" for
// every one) with a header and its duration, and counts those it ran. It
// stops at the first experiment that fails.
func printExperiments(w io.Writer, env *experiment.Env, want string) (ran int, err error) {
	want = strings.ToUpper(want)
	for _, e := range experiment.Paper {
		if want != "ALL" && e.ID != want {
			continue
		}
		fmt.Fprintf(w, "=== %s: %s (n=%d, seed=%d)\n", e.ID, e.Brief, len(env.DS.Records), env.Seed)
		start := time.Now()
		if err := e.Run(env, w); err != nil {
			return ran, fmt.Errorf("%s failed: %v", e.ID, err)
		}
		fmt.Fprintf(w, "--- %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	return ran, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
