package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/export"
	"secreta/internal/gen"
)

// processStart approximates the process start: package initialization
// runs before main.
var processStart = time.Now()

// runConfig is one benchmark invocation.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
	// workDir holds durable data directories and the traced run's span
	// file.
	workDir string
	out     io.Writer
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// report is a run's outcome: the metrics plus the operation ledger of the
// measured window.
type report struct {
	led     ledger
	metrics []metric
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// run sets the workload up (several times; the last set-up is kept),
// measures it and tears it down.
func run(cfg runConfig) (*report, error) {
	var setups []float64
	var e *env
	var p *plan
	for s := 0; s < max(cfg.sz.setups, 1); s++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", s-1, err)
			}
		}
		start := time.Now()
		if s == 0 {
			start = processStart
		}
		var err error
		e, p, err = setup(cfg, s)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", s, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Fprintf(cfg.out, "workload %s seed %d window %.1fs setups %v\n",
		cfg.w.name, cfg.seed, cfg.seconds, setups)
	// next is the position of the next op in the request sequence; the
	// traced run's two halves continue one sequence.
	next := 0
	seq := func(deadline time.Time) func() (op, bool) {
		return func() (op, bool) {
			if time.Now().After(deadline) {
				return op{}, false
			}
			next++
			return p.op(next - 1), true
		}
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	rep := &report{}
	if !cfg.trace {
		win := measure(e, false, seq(time.Now().Add(window)))
		closeErr := e.close()
		rep.led = win.led
		endToEnd(rep, cfg.out, win, median(setups))
		return rep, closeErr
	}
	// Traced run: an untraced half window, then a traced half of the same
	// sequence; the throughput difference is the tracing overhead.
	plain := measure(e, false, seq(time.Now().Add(window/2)))
	traced := measure(e, true, seq(time.Now().Add(window/2)))
	closeErr := e.close()
	rep.led = plain.led
	rep.led.add(traced.led)
	if err := perLayer(rep, cfg, p, plain, traced); err != nil {
		return nil, err
	}
	return rep, closeErr
}

// setup boots a server, uploads the plan's datasets and runs the plan's
// set-up ops. Any failure here aborts the run.
func setup(cfg runConfig, n int) (*env, *plan, error) {
	p := cfg.w.plan(cfg.seed, cfg.sz)
	var opts bootOptions
	if cfg.w.durable {
		opts.dataDir = filepath.Join(cfg.workDir, fmt.Sprintf("data-%d-%d", os.Getpid(), n))
		opts.registryMaxDatasets = cfg.sz.sweepRAMCap
		opts.countFS = cfg.trace
	}
	e, err := boot(opts)
	if err != nil {
		return nil, nil, err
	}
	c := &client{hc: e.hc, base: e.base}
	for i, body := range p.uploads {
		if _, err := c.do("POST", "/datasets", body); err != nil {
			e.close()
			return nil, nil, err
		}
		var up struct {
			Ref string `json:"dataset_ref"`
		}
		if err := json.Unmarshal(c.buf.Bytes(), &up); err != nil || up.Ref != p.refs[i] {
			e.close()
			return nil, nil, fmt.Errorf("upload %d: dataset_ref %q, want fingerprint %s", i, up.Ref, p.refs[i])
		}
	}
	var pos int
	win := measure(e, false, func() (op, bool) {
		if pos == len(p.setupOps) {
			return op{}, false
		}
		pos++
		return p.setupOps[pos-1], true
	})
	if win.led.failed > 0 {
		e.close()
		return nil, nil, fmt.Errorf("%d of %d set-up operations failed: %v", win.led.failed, win.led.attempted, win.firstErr)
	}
	return e, p, nil
}

// window is what one measured stretch of closed-loop traffic produced.
type window struct {
	jobs     []jobSample
	led      ledger
	firstErr error
	wall     time.Duration
	// cpu is the process's user+system CPU time over the window.
	cpu      time.Duration
	heapPeak uint64
	rt0, rt1 rtSnap
	st0, st1 statsDoc
	fs0, fs1 fsCounts
}

// measure runs one closed-loop client over the ops next yields until it
// yields no more, and takes the process and server counters around it.
// A single client keeps the load steady on a machine of few cores: the
// server's own goroutines and the garbage collector get the rest.
func measure(e *env, traced bool, next func() (op, bool)) *window {
	w := &window{}
	stats := func(dst *statsDoc) {
		status, err := getJSON(e.hc, e.base+"/stats", dst)
		w.led.record(err == nil && httpOK(status))
	}
	if traced {
		stats(&w.st0)
		w.fs0 = e.fs.snapshot()
	}
	w.rt0 = readRuntime()
	sampler := startSampler()
	start, cpu0 := time.Now(), cpuTime()
	c := &client{hc: e.hc, base: e.base, traced: traced}
	for o, ok := next(); ok; o, ok = next() {
		if err := c.run(o); err != nil && w.firstErr == nil {
			w.firstErr = err
		}
	}
	w.wall, w.cpu = time.Since(start), cpuTime()-cpu0
	w.heapPeak = sampler.stop()
	w.rt1 = readRuntime()
	if traced {
		stats(&w.st1)
		w.fs1 = e.fs.snapshot()
	}
	w.jobs = c.jobs
	w.led.add(c.led)
	return w
}

func (w *window) turnarounds() []float64 {
	out := make([]float64, len(w.jobs))
	for i := range w.jobs {
		out[i] = w.jobs[i].turnaroundMS()
	}
	return out
}

func (w *window) jobsPerSec() float64 { return ratio(float64(len(w.jobs)), w.wall.Seconds()) }

// endToEnd fills the untraced run's metrics, each over the whole window:
// with seed-independent blocks of configs, a window holds the same mix
// of jobs whatever the seed.
func endToEnd(rep *report, out io.Writer, w *window, setupS float64) {
	ta := w.turnarounds()
	rep.add("setup_s", "s", setupS)
	rep.add("job_p50_ms", "ms", median(ta))
	rep.add("job_tail_ms", "ms", percentile(ta, tailPct))
	rep.add("jobs_per_s", "1/s", w.jobsPerSec())
	rep.add("cpu_ms_per_job", "ms", ratio(float64(w.cpu.Microseconds())/1e3, float64(len(ta))))
	rep.add("heap_peak_mb", "MB", float64(w.heapPeak)/(1<<20))
	rep.add("ok_frac", "ratio", 1-w.led.failFrac())
	for _, m := range rep.metrics {
		fmt.Fprintf(out, "%-16s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(out, "job_tail_ms is p%d of %d jobs (%d beyond it)\n", tailPct, len(w.jobs), len(w.jobs)-nearestRank(tailPct, len(w.jobs)))
	fmt.Fprintf(out, "fail_frac %.6f (%d of %d operations failed)\n", w.led.failFrac(), w.led.failed, w.led.attempted)
	if w.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", w.firstErr)
	}
}

// statsDoc is the part of GET /stats the per-layer metrics read.
type statsDoc struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Registry struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"registry"`
}

// perLayer fills the traced run's metrics from the traced window, with
// the untraced half as the overhead baseline.
func perLayer(rep *report, cfg runConfig, p *plan, plain, w *window) error {
	jobs := float64(len(w.jobs))
	spanVals := make(map[string][]float64)
	var coverage, parallelism, waitMS []float64
	polls := 0
	for i := range w.jobs {
		s := &w.jobs[i]
		jl := layersOf(s)
		for m, v := range jl.selfMS {
			spanVals[m] = append(spanVals[m], v)
		}
		coverage = append(coverage, jl.coverage)
		parallelism = append(parallelism, jl.parallelism)
		waitMS = append(waitMS, float64(s.fetchStart-s.submitEnd)/1e6)
		polls += s.polls
	}
	span := func(name string) { rep.add(name, "ms", median(spanVals[name])) }
	span("client.submit_ms")
	rep.add("client.wait_ms", "ms", median(waitMS))
	span("client.fetch_ms")
	rep.add("client.polls_per_job", "count", ratio(float64(polls), jobs))
	span("client.poll_gap_ms")
	span("server.queue_wait_ms")
	span("server.dataset_load_ms")
	span("server.execute_self_ms")
	span("server.persist_ms")
	span("engine.run_ms")
	span("engine.evaluate_ms")
	hits := float64(w.st1.Cache.Hits - w.st0.Cache.Hits)
	misses := float64(w.st1.Cache.Misses - w.st0.Cache.Misses)
	rep.add("engine.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	rep.add("engine.batch_parallelism", "ratio", median(parallelism))
	for _, ph := range append(append([]string(nil), phaseNames...), "other") {
		span(phaseMetric(ph))
	}
	regHits := float64(w.st1.Registry.Hits - w.st0.Registry.Hits)
	regMisses := float64(w.st1.Registry.Misses - w.st0.Registry.Misses)
	rep.add("registry.hit_ratio", "ratio", ratio(regHits, regHits+regMisses))
	rep.add("registry.loads_per_job", "count", ratio(regMisses, jobs))
	syncs := float64(w.fs1.syncs - w.fs0.syncs)
	rep.add("store.syncs_per_job", "count", ratio(syncs, jobs))
	rep.add("store.sync_ms", "ms", ratio(float64(w.fs1.syncNS-w.fs0.syncNS)/1e6, syncs))
	rep.add("store.renames_per_job", "count", ratio(float64(w.fs1.renames-w.fs0.renames), jobs))
	rep.add("store.bytes_written_per_job", "B", ratio(float64(w.fs1.written-w.fs0.written), jobs))
	if err := layerCalls(rep, p, cfg.sz.layerReps); err != nil {
		return err
	}
	rep.add("proc.alloc_mb_per_job", "MB", ratio(float64(w.rt1.allocs-w.rt0.allocs)/(1<<20), jobs))
	busy := (w.rt1.totalCPU - w.rt0.totalCPU) - (w.rt1.idleCPU - w.rt0.idleCPU)
	rep.add("proc.gc_cpu_frac", "ratio", ratio(w.rt1.gcCPU-w.rt0.gcCPU, busy))
	rep.add("obs.overhead_frac", "ratio", 1-ratio(w.jobsPerSec(), plain.jobsPerSec()))
	rep.add("trace.coverage", "ratio", median(coverage))

	fmt.Fprintf(cfg.out, "traced %d jobs in %.2fs (%.2f jobs/s; untraced half %.2f jobs/s)\n",
		len(w.jobs), w.wall.Seconds(), w.jobsPerSec(), plain.jobsPerSec())
	for _, m := range rep.metrics {
		fmt.Fprintf(cfg.out, "%-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if err := cmp.Or(plain.firstErr, w.firstErr); err != nil {
		fmt.Fprintf(cfg.out, "first failure: %v\n", err)
	}
	path, err := writeSpans(cfg, w.jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "spans written to %s\n", path)
	return nil
}

// writeSpans writes the traced window's span trees, one JSON line per job,
// once the measurement is over; until then they stay in memory.
func writeSpans(cfg runConfig, jobs []jobSample) (string, error) {
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.w.name, cfg.seed))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range jobs {
		s := &jobs[i]
		if err := enc.Encode(map[string]any{
			"job": s.id, "submit_start_ns": s.submitStart, "submit_end_ns": s.submitEnd,
			"fetch_start_ns": s.fetchStart, "fetch_end_ns": s.fetchEnd, "polls": s.polls,
			"server": s.trace,
		}); err != nil {
			return "", err
		}
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// layerCalls times single layers directly on the workload's own inputs:
// the first dataset's JSON and a result of the plan's layer config.
func layerCalls(rep *report, p *plan, reps int) error {
	body := p.uploads[0]
	ds := p.datasets[0]
	timeIt := func(fn func() error) (float64, error) {
		var xs []float64
		for r := 0; r < max(reps, 1); r++ {
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			xs = append(xs, float64(time.Since(start).Nanoseconds())/1e6)
		}
		return median(xs), nil
	}
	cfg, err := engine.ConfigFromSpec(p.layerConfig.Algo)
	if err != nil {
		return err
	}
	cfg.K, cfg.M, cfg.Delta = p.layerConfig.K, p.layerConfig.M, p.layerConfig.Delta
	if cfg.Hierarchies, err = gen.Hierarchies(ds, 4); err != nil {
		return err
	}
	if cfg.ItemHierarchy, err = gen.ItemHierarchy(ds, 4); err != nil {
		return err
	}
	res := engine.RunCtx(context.Background(), ds, cfg)
	if res.Err != nil {
		return fmt.Errorf("layer result: %w", res.Err)
	}
	calls := []struct {
		name string
		fn   func() error
	}{
		{"dataset.decode_json_ms", func() error { _, err := dataset.ReadJSON(bytes.NewReader(body)); return err }},
		{"dataset.fingerprint_ms", func() error { ds.Fingerprint(); return nil }},
		{"dataset.intern_ms", func() error { dataset.Intern(ds); return nil }},
		{"gen.hierarchies_ms", func() error {
			if _, err := gen.Hierarchies(ds, 4); err != nil {
				return err
			}
			_, err := gen.ItemHierarchy(ds, 4)
			return err
		}},
		{"export.ndjson_ms", func() error { return export.RecordsNDJSON(io.Discard, res.Records) }},
	}
	for _, c := range calls {
		v, err := timeIt(c.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		rep.add(c.name, "ms", v)
	}
	return nil
}

// ---- process counters ----

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type rtSnap struct {
	allocs                   uint64
	gcCPU, totalCPU, idleCPU float64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSnap{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// sampler tracks the peak Go heap in use (object bytes plus unused span
// space, i.e. HeapInuse) every few milliseconds.
type sampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startSampler() *sampler {
	h := &sampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64()+s[1].Value.Uint64())
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the heap peak.
func (h *sampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
