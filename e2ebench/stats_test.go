package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"secreta/internal/obs"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted input
	}
	for _, c := range []struct {
		in   []float64
		p    int
		want float64
	}{
		{xs, 95, 190},      // rank 190 of 200
		{xs[:40], 95, 198}, // 200..161: rank 38 of 40
		{xs[:3], 95, 200},  // rank 3 of 3
		{xs[:3], 50, 199},  // rank 2 of 3
		{[]float64{7}, 1, 7},
		{nil, 95, 0},
	} {
		if got := percentile(c.in, c.p); got != c.want {
			t.Errorf("p%d of %d samples = %v, want %v", c.p, len(c.in), got, c.want)
		}
	}
	if xs[0] != 200 {
		t.Fatal("percentile modified its input")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{5}, 5}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	leaf := func(name string, s, e int64) *span { return &span{name: name, iv: interval{s, e}} }
	cases := []struct {
		name     string
		children []*span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []*span{leaf("a", 10, 20), leaf("b", 30, 50)}, 70},
		{"overlapping", []*span{leaf("a", 10, 40), leaf("b", 30, 60)}, 50},
		{"nested", []*span{leaf("a", 10, 60), leaf("b", 20, 30)}, 50},
		{"past the parent", []*span{leaf("a", -20, 10), leaf("b", 90, 150)}, 80},
		{"outside", []*span{leaf("a", 200, 300)}, 100},
		{"touching", []*span{leaf("a", 0, 50), leaf("b", 50, 100)}, 0},
	}
	for _, c := range cases {
		parent := &span{name: "p", iv: interval{0, 100}, children: c.children}
		if got := parent.self(); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
	// A grandchild inside its parent leaves the grandparent's self time
	// alone and comes off its own parent's.
	child := &span{name: "c", iv: interval{10, 60}, children: []*span{leaf("g", 20, 30)}}
	root := &span{name: "p", iv: interval{0, 100}, children: []*span{child}}
	if root.self() != 50 || child.self() != 40 {
		t.Fatalf("self times %d, %d, want 50, 40", root.self(), child.self())
	}
}

func TestLayersOfNamesLeavesAndCoverage(t *testing.T) {
	ms := int64(1e6)
	s := &jobSample{submitStart: 0, submitEnd: 2 * ms, fetchStart: 90 * ms, fetchEnd: 100 * ms}
	// No server trace is attached, so only submit and fetch are named and
	// the 88ms between them are the root's unexplained self time.
	jl := layersOf(s)
	if jl.selfMS["client.submit_ms"] != 2 || jl.selfMS["client.fetch_ms"] != 10 {
		t.Fatalf("self times %v", jl.selfMS)
	}
	if math.Abs(jl.coverage-0.12) > 1e-9 {
		t.Fatalf("coverage %v, want 0.12", jl.coverage)
	}
}

func TestLayersOfGraftsTheServerTrace(t *testing.T) {
	ms := int64(1e6)
	t0 := time.Unix(0, 1*ms).UTC()
	// The server trace runs from 1ms into the job, before the submit
	// response at 2ms, to 80ms; its children start at 4ms and end at 79ms.
	// The fetch starts at 90ms.
	s := &jobSample{submitStart: 0, submitEnd: 2 * ms, fetchStart: 90 * ms, fetchEnd: 100 * ms,
		trace: &obs.TraceView{StartedAt: t0.Format(time.RFC3339Nano), Trace: &obs.SpanView{
			Name: "job", DurationMS: 79, Children: []*obs.SpanView{
				{Name: "queue_wait", StartMS: 3, DurationMS: 1},
				{Name: "execute", StartMS: 4, DurationMS: 74, Children: []*obs.SpanView{
					{Name: "dataset_load", StartMS: 4, DurationMS: 4},
					{Name: "run", StartMS: 8, DurationMS: 70, Children: []*obs.SpanView{
						{Name: "lattice search", StartMS: 8, DurationMS: 60},
						{Name: "evaluate", StartMS: 68, DurationMS: 10},
					}},
				}},
			}}}}
	jl := layersOf(s)
	want := map[string]float64{
		"client.submit_ms": 2, "server.queue_wait_ms": 1, "server.execute_self_ms": 0,
		"server.dataset_load_ms": 4, "engine.run_ms": 0, "phase.lattice_search_ms": 60,
		"engine.evaluate_ms": 10, "client.poll_gap_ms": 10, "client.fetch_ms": 10,
	}
	for m, v := range want {
		if math.Abs(jl.selfMS[m]-v) > 1e-6 {
			t.Errorf("%s = %v, want %v", m, jl.selfMS[m], v)
		}
	}
	// Only the roots cover 2..4ms and 79..80ms.
	if math.Abs(jl.coverage-0.97) > 1e-6 {
		t.Errorf("coverage %v, want 0.97", jl.coverage)
	}
	if math.Abs(jl.parallelism-70.0/74) > 1e-9 {
		t.Errorf("parallelism %v, want 70/74", jl.parallelism)
	}
}

func TestFailFracCountsRefusedCalls(t *testing.T) {
	codes := map[string]int{"/ok": 200, "/accepted": 202, "/missing": 404, "/busy": 429, "/broken": 500}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(codes[r.URL.Path])
	}))
	defer srv.Close()
	c := &client{hc: srv.Client(), base: srv.URL}
	for _, path := range []string{"/ok", "/accepted", "/missing", "/busy", "/broken", "/ok"} {
		c.do(http.MethodGet, path, nil)
	}
	// A transport error counts too.
	c.base = "http://127.0.0.1:1"
	c.do(http.MethodGet, "/ok", nil)
	if c.led.attempted != 7 || c.led.failed != 4 {
		t.Fatalf("ledger %+v, want 7 attempted, 4 failed", c.led)
	}
	if got := c.led.failFrac(); math.Abs(got-4.0/7) > 1e-12 {
		t.Fatalf("failFrac = %v, want 4/7", got)
	}
	var total ledger
	total.add(c.led)
	total.record(false)
	if total.attempted != 8 || total.failed != 5 {
		t.Fatalf("merged ledger %+v", total)
	}
	if (ledger{}).failFrac() != 0 {
		t.Fatal("empty ledger must report 0")
	}
}
