package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/experiment"
	"secreta/internal/export"
	"secreta/internal/store"
)

// Result payloads. Series jobs (evaluate/compare) keep a small, fully
// materialized JSON document. Anonymize jobs — whose payload is dominated
// by the anonymized records — are held as a small meta document plus a
// replayable record stream (the interned columnar form in RAM, or a
// framed chunk file on disk), and both the buffered and the NDJSON
// response are assembled from it incrementally: serving an N-record
// result never builds an O(N) buffer.

// chunkTarget is the record-chunk granularity: the size of the frames the
// server persists and of the write/flush batches it streams to clients.
const chunkTarget = 64 << 10

// anonMeta is the constant-size part of an anonymize result — everything
// except the records. Serialized compact, it is both the NDJSON stream's
// header line and frame 0 of the chunked result file.
type anonMeta struct {
	Attributes  []export.StreamAttr `json:"attributes"`
	Transaction string              `json:"transaction,omitempty"`
	Records     int                 `json:"records"`
	CacheHit    bool                `json:"cache_hit"`
	// Results is the compact `secreta evaluate -results`-style array, the
	// same bytes the buffered document carries under "results".
	Results json.RawMessage `json:"results"`
}

// resultRecords is a replayable source of compact record-JSON lines — the
// one abstraction both response shapes iterate, regardless of whether the
// records live in RAM or on disk. stream calls emit once per record, in
// record order, with the line excluding its trailing newline; emit's
// error aborts the scan and is returned.
type resultRecords interface {
	stream(emit func(line []byte) error) error
}

// memRecords streams from an in-memory record source — for retained
// terminal jobs this is the interned columnar form of the anonymized
// dataset, framed line by line from its escaped dictionaries (never
// materialized whole).
type memRecords struct {
	src dataset.RecordSource
}

func (m memRecords) stream(emit func(line []byte) error) error {
	return export.RecordLines(m.src, emit)
}

// diskRecords streams from a framed chunk file, one frame in memory at a
// time — the serving path for durable and rehydrated jobs.
type diskRecords struct {
	chunks *store.ChunkedDir
	id     string
}

func (d diskRecords) stream(emit func(line []byte) error) error {
	r, err := d.chunks.Open(d.id)
	if err != nil {
		return err
	}
	defer r.Close()
	if _, err := r.Next(); err != nil { // frame 0: meta, already held
		return fmt.Errorf("reading result stream meta: %w", err)
	}
	for {
		frame, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		for len(frame) > 0 {
			nl := bytes.IndexByte(frame, '\n')
			if nl < 0 {
				return fmt.Errorf("result stream frame has an unterminated record line")
			}
			if err := emit(frame[:nl]); err != nil {
				return err
			}
			frame = frame[nl+1:]
		}
	}
}

// batchBufSize is the capacity of a pooled batch buffer: one chunk plus
// room for the line that crosses chunkTarget.
const batchBufSize = chunkTarget + 4096

// batchBufs recycles batch buffers across streams, so a stream does not
// allocate (and the runtime zero) a fresh one each time.
var batchBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, batchBufSize)
	return &b
}}

// batchLines streams recs' record lines, each newline-terminated, after
// head, and hands emit every batch that reaches chunkTarget bytes, then
// the shorter tail. The NDJSON route and the chunk file share it, so both
// carry the same record bytes in the same batches. emit must not keep the
// batch: its buffer is reused, by this stream and by later ones.
func batchLines(recs resultRecords, head []byte, emit func(batch []byte) error) error {
	pooled := batchBufs.Get().(*[]byte)
	buf := append((*pooled)[:0], head...)
	defer func() {
		// A buffer that outgrew the pool's size (an oversized head or
		// record line) is left to the collector rather than kept.
		if cap(buf) == batchBufSize {
			*pooled = buf[:0]
			batchBufs.Put(pooled)
		}
	}()
	err := recs.stream(func(line []byte) error {
		buf = append(append(buf, line...), '\n')
		if len(buf) < chunkTarget {
			return nil
		}
		err := emit(buf)
		buf = buf[:0]
		return err
	})
	if err == nil && len(buf) > 0 {
		err = emit(buf)
	}
	return err
}

// jobResult is what a job's runnable hands back on success and what the
// finished job retains and serves. Exactly one shape is populated: full
// for series jobs, meta+recs for anonymize jobs. A runnable's recs are
// in RAM; finishJob points them at the chunk file once it is committed.
type jobResult struct {
	full []byte
	meta *anonMeta
	recs resultRecords
}

// ---- payload builders (series jobs keep the legacy buffered form) ----

// resultsPayload wraps export.ResultsJSON: {"results": [...]}, byte-for-
// byte the same result objects `secreta evaluate -results` writes.
func resultsPayload(results []*engine.Result) (*jobResult, error) {
	var buf bytes.Buffer
	if err := export.ResultsJSON(&buf, results); err != nil {
		return nil, err
	}
	p, err := wrap("results", buf.Bytes())
	if err != nil {
		return nil, err
	}
	return &jobResult{full: p}, nil
}

func seriesPayload(series []*experiment.Series) (*jobResult, error) {
	var buf bytes.Buffer
	if err := export.SeriesJSON(&buf, series); err != nil {
		return nil, err
	}
	p, err := wrap("series", buf.Bytes())
	if err != nil {
		return nil, err
	}
	return &jobResult{full: p}, nil
}

// wrap assembles {"key": <raw>, ...} from alternating key, raw-JSON pairs.
func wrap(kv ...any) ([]byte, error) {
	out := make(map[string]json.RawMessage, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		out[kv[i].(string)] = json.RawMessage(bytes.TrimSpace(kv[i+1].([]byte)))
	}
	return json.MarshalIndent(out, "", "  ")
}

// anonymizeResult builds the streaming-ready result of an anonymize
// run: the constant-size meta plus the replayable record source the
// engine result carries. cacheHit flags cache-served results so their
// runtime_s is not read as a fresh measurement.
func anonymizeResult(res *engine.Result, cacheHit bool) (*jobResult, error) {
	var buf bytes.Buffer
	if err := export.ResultsJSON(&buf, []*engine.Result{res}); err != nil {
		return nil, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		return nil, err
	}
	src := res.Records
	if src == nil {
		return nil, fmt.Errorf("anonymize result carries no records")
	}
	hdr := export.HeaderFor(src)
	return &jobResult{
		meta: &anonMeta{
			Attributes:  hdr.Attributes,
			Transaction: hdr.Transaction,
			Records:     hdr.Records,
			CacheHit:    cacheHit,
			Results:     compact.Bytes(),
		},
		recs: memRecords{src: src},
	}, nil
}

// ---- buffered document assembly ----

// writeBufferedAnonymize streams the buffered-path JSON document —
// {"anonymized": {...}, "cache_hit": ..., "results": [...]} — in the
// exact bytes the legacy fully-materialized json.MarshalIndent
// construction produced (pinned by TestBufferedDocMatchesLegacyBytes),
// while holding only one record in memory at a time.
func writeBufferedAnonymize(w io.Writer, meta *anonMeta, recs resultRecords) error {
	bw := bufio.NewWriterSize(w, chunkTarget)
	bw.WriteString("{\n  \"anonymized\": {\n    \"attributes\": ")
	attrs, err := json.Marshal(meta.Attributes)
	if err != nil {
		return err
	}
	// One scratch buffer serves every indentInto of the document.
	var scratch bytes.Buffer
	if err := indentInto(bw, &scratch, attrs, "    "); err != nil {
		return err
	}
	if meta.Transaction != "" {
		tn, err := json.Marshal(meta.Transaction)
		if err != nil {
			return err
		}
		bw.WriteString(",\n    \"transaction\": ")
		bw.Write(tn)
	}
	bw.WriteString(",\n    \"records\": ")
	if meta.Records == 0 {
		// The legacy document marshaled a nil records slice as null;
		// byte-identity wins over prettier JSON here.
		bw.WriteString("null")
	} else {
		bw.WriteByte('[')
		first := true
		err = recs.stream(func(line []byte) error {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.WriteString("\n      ")
			return indentInto(bw, &scratch, line, "      ")
		})
		if err != nil {
			return err
		}
		bw.WriteString("\n    ]")
	}
	bw.WriteString("\n  },\n  \"cache_hit\": ")
	bw.WriteString(strconv.FormatBool(meta.CacheHit))
	bw.WriteString(",\n  \"results\": ")
	if err := indentInto(bw, &scratch, meta.Results, "  "); err != nil {
		return err
	}
	bw.WriteString("\n}")
	return bw.Flush()
}

// indentInto re-indents a compact JSON value for embedding at the line
// prefix the document has reached, mirroring what json.MarshalIndent did
// to the legacy document's RawMessage fields. scratch holds the indented
// bytes on their way to w; its earlier contents are discarded.
func indentInto(w *bufio.Writer, scratch *bytes.Buffer, compact []byte, prefix string) error {
	scratch.Reset()
	if err := json.Indent(scratch, compact, prefix, "  "); err != nil {
		return err
	}
	_, err := w.Write(scratch.Bytes())
	return err
}
