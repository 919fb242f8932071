// Command e2ebench is secreta-serve's end-to-end benchmark. It starts the
// real server in-process behind a loopback listener, drives it with
// a closed-loop client over one workload, checks every result, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer breakdown) as
// the last line of its output, in JSON.
//
//	e2ebench --workload anon-miss --seed 1 --seconds 50 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "workload to run: anon-miss or compare-sweep")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and request sequence")
	seconds := flag.Float64("seconds", 50, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (anon-miss|compare-sweep), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	rep, err := run(runConfig{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sz: fullSizes, workDir: filepath.Join(".bench_build", "e2ebench-work"), out: os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	out := map[string]any{
		"correct":   rep.led.failed == 0,
		"attempted": rep.led.attempted,
		"failed":    rep.led.failed,
		"metrics":   metricsJSON(rep.metrics),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.led.failed > 0 {
		os.Exit(1)
	}
}

func metricsJSON(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}
