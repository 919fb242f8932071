package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/export"
	"secreta/internal/gen"
	"secreta/internal/store"
)

// legacyAnonymizePayload is the historical fully-materialized payload
// construction, preserved here verbatim as the byte-identity reference
// for the streaming assembler.
func legacyAnonymizePayload(res *engine.Result, cacheHit bool) ([]byte, error) {
	var buf bytes.Buffer
	if err := export.ResultsJSON(&buf, []*engine.Result{res}); err != nil {
		return nil, err
	}
	var data bytes.Buffer
	if err := res.Anonymized().WriteJSON(&data); err != nil {
		return nil, err
	}
	hit, err := json.Marshal(cacheHit)
	if err != nil {
		return nil, err
	}
	return wrap("results", buf.Bytes(), "anonymized", data.Bytes(), "cache_hit", hit)
}

// anonResult runs one real anonymization to feed the payload tests.
func anonResult(t *testing.T) *engine.Result {
	t.Helper()
	ds, err := dataset.LoadFile(filepath.Join("..", "..", "testdata", "patients.csv"), dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := engine.ConfigFromSpec("cluster+apriori/rmerger")
	if err != nil {
		t.Fatal(err)
	}
	cfg.K, cfg.M, cfg.Delta = 4, 2, 0.5
	if cfg.Hierarchies, err = gen.Hierarchies(ds, 4); err != nil {
		t.Fatal(err)
	}
	if cfg.ItemHierarchy, err = gen.ItemHierarchy(ds, 4); err != nil {
		t.Fatal(err)
	}
	res := engine.Run(ds, cfg)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

// TestBufferedDocMatchesLegacyBytes pins the tentpole's byte-identity
// criterion at the assembler level: the incrementally written document
// equals the legacy fully-buffered construction byte for byte — from the
// in-RAM interned source and from the on-disk chunked file alike.
func TestBufferedDocMatchesLegacyBytes(t *testing.T) {
	res := anonResult(t)
	for _, cacheHit := range []bool{false, true} {
		legacy, err := legacyAnonymizePayload(res, cacheHit)
		if err != nil {
			t.Fatal(err)
		}
		outcome, err := anonymizeResult(res, cacheHit)
		if err != nil {
			t.Fatal(err)
		}

		var fromMem bytes.Buffer
		mem := memRecords{src: dataset.Intern(res.Anonymized())}
		if err := writeBufferedAnonymize(&fromMem, outcome.meta, mem); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromMem.Bytes(), legacy) {
			t.Fatalf("cacheHit=%v: streamed document diverges from legacy bytes:\n%s\n---- legacy ----\n%s",
				cacheHit, firstDiff(fromMem.Bytes(), legacy), legacy[:min(400, len(legacy))])
		}

		// Disk path: persist chunked, stream back from the file.
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := &Server{st: st}
		if err := s.writeChunkedResult("j-000001", outcome.meta, outcome.recs); err != nil {
			t.Fatal(err)
		}
		var fromDisk bytes.Buffer
		disk := diskRecords{chunks: st.ResultChunks, id: "j-000001"}
		if err := writeBufferedAnonymize(&fromDisk, outcome.meta, disk); err != nil {
			t.Fatal(err)
		}
		st.Close()
		if !bytes.Equal(fromDisk.Bytes(), legacy) {
			t.Fatalf("cacheHit=%v: disk-streamed document diverges from legacy bytes:\n%s", cacheHit, firstDiff(fromDisk.Bytes(), legacy))
		}
	}
}

func firstDiff(got, want []byte) string {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := max(0, i-80)
			return "first divergence at byte " + strings.Repeat("", 0) +
				"\ngot:  ..." + string(got[lo:min(len(got), i+80)]) +
				"\nwant: ..." + string(want[lo:min(len(want), i+80)])
		}
	}
	return "lengths differ"
}

// TestStreamRouteByteIdentity walks the HTTP layer: the NDJSON stream's
// record lines are byte-identical to the compacted records of the
// buffered JSON document, the header carries the same results/cache_hit,
// and Accept negotiation on the buffered route yields the same stream.
func TestStreamRouteByteIdentity(t *testing.T) {
	ts := newTestServer(t)
	dsJSON, ds := patientsJSON(t)
	_, body := postJSON(t, ts.URL+"/anonymize", AnonymizeRequest{
		Dataset: dsJSON,
		Config:  ConfigRequest{Algo: "cluster+apriori/rmerger", K: 4, M: 2, Delta: 0.5},
	})
	id := body["job"].(string)
	if st := pollDone(t, ts.URL, id); st != StatusDone {
		t.Fatalf("job finished as %s", st)
	}

	buffered := getBody(t, ts.URL+"/jobs/"+id+"/result", "")
	streamed := getBody(t, ts.URL+"/jobs/"+id+"/result/stream", "")
	negotiated := getBody(t, ts.URL+"/jobs/"+id+"/result", "application/x-ndjson")
	if !bytes.Equal(streamed, negotiated) {
		t.Fatal("Accept-negotiated stream diverges from /result/stream")
	}

	lines := strings.Split(strings.TrimRight(string(streamed), "\n"), "\n")
	var hdr struct {
		Records  int             `json:"records"`
		CacheHit bool            `json:"cache_hit"`
		Results  json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("decoding stream header: %v", err)
	}
	if hdr.Records != len(ds.Records) || len(lines)-1 != hdr.Records {
		t.Fatalf("stream has %d record lines, header says %d, dataset has %d", len(lines)-1, hdr.Records, len(ds.Records))
	}

	var doc struct {
		Anonymized struct {
			Records []json.RawMessage `json:"records"`
		} `json:"anonymized"`
		CacheHit bool            `json:"cache_hit"`
		Results  json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(buffered, &doc); err != nil {
		t.Fatalf("decoding buffered document: %v", err)
	}
	if len(doc.Anonymized.Records) != hdr.Records {
		t.Fatalf("buffered document has %d records, stream %d", len(doc.Anonymized.Records), hdr.Records)
	}
	for i, raw := range doc.Anonymized.Records {
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatal(err)
		}
		if lines[1+i] != compact.String() {
			t.Fatalf("record %d: stream %q vs buffered-compact %q", i, lines[1+i], compact.String())
		}
	}
	var wantResults, gotResults bytes.Buffer
	if err := json.Compact(&wantResults, doc.Results); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&gotResults, hdr.Results); err != nil {
		t.Fatal(err)
	}
	if wantResults.String() != gotResults.String() || doc.CacheHit != hdr.CacheHit {
		t.Fatal("stream header results/cache_hit diverge from the buffered document")
	}

	// A series job has no record stream: the route must refuse, not hang.
	_, evBody := postJSON(t, ts.URL+"/evaluate", AnonymizeRequest{
		Dataset: dsJSON,
		Config:  ConfigRequest{Algo: "cluster", K: 3},
	})
	evID := evBody["job"].(string)
	if st := pollDone(t, ts.URL, evID); st != StatusDone {
		t.Fatalf("evaluate finished as %s", st)
	}
	if code, _ := getJSON(t, ts.URL+"/jobs/"+evID+"/result/stream"); code != 406 {
		t.Fatalf("series stream request answered %d, want 406", code)
	}
}

// getBody fetches a URL (optionally with an Accept header) and returns
// the full body.
func getBody(t *testing.T, url, accept string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(bufio.NewReader(resp.Body)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAcceptsNDJSON pins the negotiation rule: NDJSON must be named
// with a non-zero quality; JSON stays the default otherwise.
func TestAcceptsNDJSON(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"application/json", false},
		{"application/x-ndjson", true},
		{"application/ndjson", true},
		{"application/json, application/x-ndjson", true},
		{"application/x-ndjson;q=0.8, application/json", true},
		{"application/json, application/x-ndjson;q=0", false},
		{"application/x-ndjson; q=0.0", false},
		{"Application/X-NDJSON", true},
		{"*/*", false},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodGet, "http://x/", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		if got := acceptsNDJSON(req); got != tc.want {
			t.Errorf("acceptsNDJSON(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}

// TestStreamRouteUnfinishedJob mirrors the buffered route's non-done
// answers on the stream route.
func TestStreamRouteUnfinishedJob(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := getJSON(t, ts.URL+"/jobs/j-999999/result/stream"); code != 404 {
		t.Fatalf("missing job: %d, want 404", code)
	}
}
