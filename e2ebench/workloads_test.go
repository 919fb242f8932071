package main

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// tinySizes shrink every workload so a smoke run takes about a second.
var tinySizes = sizes{
	missRecords:   200,
	sweepDatasets: 2,
	sweepRecords:  200,
	sweepRAMCap:   1,
	setups:        1,
	layerReps:     1,
}

// sequence returns the first n request bodies of a workload's plan.
func sequence(w *workload, seed int64, n int) [][]byte {
	p := w.plan(seed, tinySizes)
	var out [][]byte
	for _, o := range p.setupOps {
		out = append(out, o.body)
	}
	for i := 0; i < n; i++ {
		out = append(out, p.op(i).body)
	}
	return out
}

func TestRequestSequenceIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := sequence(w, 7, 64), sequence(w, 7, 64)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: seed 7 request %d differs between two plans", w.name, i)
			}
		}
		// Drawing op(i) must not depend on what was drawn before it.
		p := w.plan(7, tinySizes)
		if got := p.op(40).body; !bytes.Equal(got, a[len(a)-64+40]) {
			t.Fatalf("%s: op(40) drawn alone differs from op(40) drawn in order", w.name)
		}
		c := sequence(w, 8, 64)
		same := true
		for i := range a {
			same = same && bytes.Equal(a[i], c[i])
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 give the same request sequence", w.name)
		}
	}
}

func TestMissSequenceNeverRepeatsACacheKey(t *testing.T) {
	p := workloadByName("anon-miss").plan(3, tinySizes)
	seen := make(map[string]bool)
	for _, o := range p.setupOps {
		seen[string(o.body)] = true
	}
	for i := 0; i < 2000; i++ {
		body := string(p.op(i).body)
		if seen[body] {
			t.Fatalf("op %d repeats an earlier request: %s", i, body)
		}
		seen[body] = true
	}
}

func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server per workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(runConfig{
				w: w, seed: 5, seconds: 0.4, trace: traced,
				sz: tinySizes, workDir: t.TempDir(), out: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.led.failed != 0 || rep.led.attempted == 0 {
				t.Fatalf("%s traced=%v: ledger %+v", w.name, traced, rep.led)
			}
			got := make(map[string]float64)
			for _, m := range rep.metrics {
				got[m.name] = m.value
			}
			if !traced {
				if got["jobs_per_s"] <= 0 || got["ok_frac"] != 1 {
					t.Fatalf("%s: metrics %v", w.name, got)
				}
				continue
			}
			// The guard readings: each workload exercises what it claims.
			if got["engine.cache_hit_ratio"] > 0.05 {
				t.Errorf("%s: cache hit ratio %v", w.name, got["engine.cache_hit_ratio"])
			}
			if w.name == "compare-sweep" {
				if runtime.NumCPU() > 1 && got["engine.batch_parallelism"] <= 1 {
					t.Errorf("compare-sweep batch parallelism %v", got["engine.batch_parallelism"])
				}
				if got["registry.loads_per_job"] == 0 {
					t.Error("compare-sweep never reloaded a dataset")
				}
			}
			if w.durable != (got["store.syncs_per_job"] != 0) {
				t.Errorf("%s: durable %v, syncs/job %v", w.name, w.durable, got["store.syncs_per_job"])
			}
			if got["trace.coverage"] <= 0 || got["trace.coverage"] > 1 {
				t.Errorf("%s: trace coverage %v", w.name, got["trace.coverage"])
			}
		}
	}
}
