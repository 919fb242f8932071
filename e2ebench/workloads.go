package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/gen"
	"secreta/internal/server"
)

// sizes are the input sizes of every workload; tests shrink them.
type sizes struct {
	missRecords   int // anon-miss: records in its one dataset
	sweepDatasets int // compare-sweep: datasets in the working set
	sweepRecords  int // compare-sweep: records per dataset
	sweepRAMCap   int // compare-sweep: registry RAM cap, below sweepDatasets
	setups        int // set-ups per run; setup_s is their median
	layerReps     int // repetitions of each direct layer call
}

var fullSizes = sizes{
	missRecords:   2000,
	sweepDatasets: 2,
	sweepRecords:  1000,
	sweepRAMCap:   1,
	setups:        3,
	layerReps:     15,
}

// basketItems is the item domain of every generated basket attribute.
const basketItems = 24

// workload is one traffic mix against one server configuration, driven
// by a single closed-loop client.
type workload struct {
	name    string
	durable bool
	// plan generates the workload's inputs and request sequence from the
	// seed. It talks to no server: everything it returns is a pure
	// function of (seed, sizes).
	plan func(seed int64, sz sizes) *plan
}

// plan is a workload's generated inputs: the datasets uploaded during
// set-up and the request sequence op(0), op(1), ... that the client
// draws from in order.
type plan struct {
	datasets []*dataset.Dataset
	uploads  [][]byte // datasets[i] as the JSON POST /datasets body
	refs     []string // datasets[i]'s dataset_ref (its fingerprint)
	op       func(i int) op
	// setupOps run after the uploads, before measuring, as a warm-up.
	setupOps []op
	// layerConfig is the config the direct layer calls use to produce a
	// result for export timing.
	layerConfig server.ConfigRequest
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json records why
// each was chosen.
var workloads = []*workload{
	{
		// Every job misses the result cache: algorithms, evaluate and the
		// NDJSON export stream do the work.
		name: "anon-miss",
		plan: planMiss,
	},
	{
		// Comparison mode on a durable server: 12 uncached runs fanned out
		// inside each job, so intra-job scaling shows and transport
		// vanishes; the job's dataset often has to be reloaded from disk,
		// and its result is persisted.
		name:    "compare-sweep",
		durable: true,
		plan:    planSweep,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rngFor derives an independent, reproducible random stream for one
// purpose (salt) and position (i) of the sequence, so op(i) does not
// depend on which ops were drawn before it or by which client.
func rngFor(seed int64, salt string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, salt, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// permSlot returns the entry of a seeded permutation of n slots that
// position i falls on: each consecutive block of n positions visits every
// slot once, so the mix of a run does not depend on the seed.
func permSlot(seed int64, salt string, i, n int) int {
	return rngFor(seed, salt, i/n).Perm(n)[i%n]
}

// blockSlot is permSlot's slot as an index unique over the whole
// sequence: block i/n, slot within it. The seed orders a block; which
// indices it holds does not depend on the seed.
func blockSlot(seed int64, salt string, i, n int) int {
	return i/n*n + permSlot(seed, salt, i, n)
}

// deltaAt spreads δ over [0.3, 0.7) along a golden-ratio sequence:
// distinct for every index, so no two ops share a cache key. It does not
// depend on the seed, so every seed runs the same configs per block, in
// its own order.
func deltaAt(i int) float64 {
	_, frac := math.Modf(float64(i) * 0.6180339887498949)
	return 0.3 + 0.4*frac
}

// warmDelta is the δ of warm-up jobs, outside deltaAt's range.
const warmDelta = 0.25

func genDataset(records int, seed int64) (*dataset.Dataset, []byte) {
	ds := gen.Census(gen.Config{Records: records, Items: basketItems, Seed: seed})
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		panic(err) // generated datasets always encode
	}
	return ds, buf.Bytes()
}

// dataSeed generates the datasets every workload starts from. It is
// fixed: how long an algorithm takes depends on the data (Tmerger's cost
// varies threefold across generated 2,000-record datasets), so runs with
// different seeds do the same work on the same data and differ only in
// their request sequence.
const dataSeed = 1

func newPlan(n, records int) *plan {
	p := &plan{}
	for d := 0; d < n; d++ {
		ds, body := genDataset(records, rngFor(dataSeed, "dataset", d).Int63())
		p.datasets = append(p.datasets, ds)
		p.uploads = append(p.uploads, body)
		p.refs = append(p.refs, ds.Fingerprint())
	}
	return p
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always encode
	}
	return b
}

// missSpecs are the nine algorithm specs HTTP can run (COAT and PCTA
// need a privacy policy /anonymize cannot carry).
var missSpecs = []string{
	"incognito", "topdown", "bottomup", "cluster",
	"apriori", "lra", "vpa",
	"cluster+apriori/rmerger", "topdown+vpa/tmerger",
}

// missK and missM are the k and m values anon-miss jobs cycle through.
var (
	missK = []int{6, 8, 10}
	missM = []int{1, 2}
)

func planMiss(seed int64, sz sizes) *plan {
	p := newPlan(1, sz.missRecords)
	records := sz.missRecords
	p.layerConfig = server.ConfigRequest{Algo: "cluster+apriori/rmerger", K: 5, M: 2, Delta: 0.5}
	// Each block of len(missSpecs)*len(missK)*len(missM) ops visits every
	// (spec, k, m) combination once, in a seeded order.
	combos := len(missSpecs) * len(missK) * len(missM)
	job := func(cfg server.ConfigRequest) op {
		return op{
			path:   "/anonymize",
			body:   mustJSON(server.AnonymizeRequest{DatasetRef: p.refs[0], Config: cfg}),
			result: "/jobs/{id}/result/stream",
			verify: func(body []byte) error { return checkStream(body, records, cfg.Algo) },
		}
	}
	p.op = func(i int) op {
		idx := blockSlot(seed, "miss", i, combos)
		slot := idx % combos
		return job(server.ConfigRequest{
			Algo:  missSpecs[slot%len(missSpecs)],
			K:     missK[slot/len(missSpecs)%len(missK)],
			M:     missM[slot/len(missSpecs)/len(missK)],
			Delta: deltaAt(idx),
		})
	}
	// Warm-up runs every spec once, with a δ outside the measured range so
	// it leaves nothing in the cache a measured job could hit.
	for _, spec := range missSpecs {
		p.setupOps = append(p.setupOps, job(server.ConfigRequest{Algo: spec, K: missK[1], M: 2, Delta: warmDelta}))
	}
	return p
}

// sweepConfigs are the three configs every compare-sweep job compares:
// one relational, one transaction, one RT.
var sweepConfigs = []string{"incognito", "apriori", "cluster+apriori/rmerger"}

// sweepPoints is the number of k values each compare-sweep job sweeps.
const sweepPoints = 4

func planSweep(seed int64, sz sizes) *plan {
	p := newPlan(sz.sweepDatasets, sz.sweepRecords)
	p.layerConfig = server.ConfigRequest{Algo: sweepConfigs[2], K: 5, M: 2, Delta: 0.5}
	starts := []int{4, 5, 6}
	job := func(ds, start int, delta float64) op {
		cfgs := make([]server.ConfigRequest, len(sweepConfigs))
		for c, algo := range sweepConfigs {
			cfgs[c] = server.ConfigRequest{Algo: algo, K: start, M: 2, Delta: delta}
		}
		return op{
			path: "/compare",
			body: mustJSON(server.CompareRequest{
				DatasetRef: p.refs[ds],
				Configs:    cfgs,
				Sweep:      server.SweepRequest{Param: "k", Start: float64(start), End: float64(start + 2*(sweepPoints-1)), Step: 2},
			}),
			result: "/jobs/{id}/result",
			verify: checkSeries,
		}
	}
	// Each block of combos jobs visits every (dataset, start) pair once.
	combos := len(starts) * len(p.refs)
	p.op = func(i int) op {
		idx := blockSlot(seed, "sweep", i, combos)
		slot := idx % combos
		return job(slot/len(starts), starts[slot%len(starts)], deltaAt(idx))
	}
	for ds := range p.refs {
		p.setupOps = append(p.setupOps, job(ds, starts[1], warmDelta))
	}
	return p
}

// ---- output checks ----

// resultJSON is one entry of a result's "results" array.
type resultJSON struct {
	Mode       string          `json:"mode"`
	Indicators indicatorsJSON  `json:"indicators"`
	Error      string          `json:"error"`
	Phases     json.RawMessage `json:"phases"`
}

type indicatorsJSON struct {
	KAnonymous  bool
	KMAnonymous bool
}

// checkGuarantee verifies the indicators report the guarantee the spec's
// mode advertises: k-anonymity for relational, k^m-anonymity for
// transaction, both for RT.
func checkGuarantee(algo string, ind indicatorsJSON) error {
	cfg, err := engine.ConfigFromSpec(algo)
	if err != nil {
		return err
	}
	wantK := cfg.Mode != engine.Transactional
	wantKM := cfg.Mode != engine.Relational
	if (wantK && !ind.KAnonymous) || (wantKM && !ind.KMAnonymous) {
		return fmt.Errorf("%s: indicators KAnonymous=%v KMAnonymous=%v miss the advertised guarantee",
			algo, ind.KAnonymous, ind.KMAnonymous)
	}
	return nil
}

func checkResults(results []resultJSON, algo string) error {
	if len(results) != 1 {
		return fmt.Errorf("%d results, want 1", len(results))
	}
	if results[0].Error != "" {
		return fmt.Errorf("result error: %s", results[0].Error)
	}
	return checkGuarantee(algo, results[0].Indicators)
}

// checkStream checks an NDJSON result: a meta line reporting the input's
// record count and the advertised guarantee, then exactly that many
// record lines.
func checkStream(body []byte, records int, algo string) error {
	metaLine, rest, ok := bytes.Cut(body, []byte("\n"))
	if !ok {
		return fmt.Errorf("stream has no meta line")
	}
	var meta struct {
		Records int          `json:"records"`
		Results []resultJSON `json:"results"`
	}
	if err := json.Unmarshal(metaLine, &meta); err != nil {
		return fmt.Errorf("decoding stream meta: %w", err)
	}
	if meta.Records != records {
		return fmt.Errorf("meta reports %d records, input has %d", meta.Records, records)
	}
	if n := bytes.Count(rest, []byte("\n")); n != records {
		return fmt.Errorf("stream carries %d record lines, input has %d", n, records)
	}
	return checkResults(meta.Results, algo)
}

// checkSeries checks a compare document: every config's series carries
// every sweep point, none failed, and each point reports its config's
// advertised guarantee.
func checkSeries(body []byte) error {
	var doc struct {
		Series []struct {
			Points []struct {
				Indicators indicatorsJSON `json:"indicators"`
				Error      string         `json:"error"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("decoding series: %w", err)
	}
	if len(doc.Series) != len(sweepConfigs) {
		return fmt.Errorf("%d series, want %d", len(doc.Series), len(sweepConfigs))
	}
	for s, series := range doc.Series {
		if len(series.Points) != sweepPoints {
			return fmt.Errorf("series %d has %d points, want %d", s, len(series.Points), sweepPoints)
		}
		for _, pt := range series.Points {
			if pt.Error != "" {
				return fmt.Errorf("series %d: point error: %s", s, pt.Error)
			}
			if err := checkGuarantee(sweepConfigs[s], pt.Indicators); err != nil {
				return err
			}
		}
	}
	return nil
}
