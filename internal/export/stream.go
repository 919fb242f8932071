package export

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"secreta/internal/dataset"
)

// Streaming record serialization: NDJSON and CSV writers that consume a
// *dataset.Indexed one record at a time, so emitting an N-record
// anonymized dataset costs O(chunk + dictionaries) memory regardless of N:
// one line or row and the writer's buffer, plus the JSON-escaped
// dictionaries RecordLines holds for one stream, bounded by the strings
// the Indexed already holds. secreta-serve's
// chunked result delivery and `secreta evaluate -stream` are built on
// these; the record line format is shared with the framed result blobs in
// internal/store, so a stream served from RAM and one served from disk are
// byte-identical.

// StreamHeader is the first NDJSON line of a record stream: the schema a
// consumer needs to interpret the record lines that follow.
type StreamHeader struct {
	Attributes  []StreamAttr `json:"attributes"`
	Transaction string       `json:"transaction,omitempty"`
	Records     int          `json:"records"`
}

// StreamAttr mirrors the dataset JSON attribute shape.
type StreamAttr struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// HeaderFor builds the stream header of src's records.
func HeaderFor(src *dataset.Indexed) StreamHeader {
	h := StreamHeader{
		Attributes:  make([]StreamAttr, len(src.Attrs)),
		Transaction: src.TransName,
		Records:     src.N,
	}
	for i, a := range src.Attrs {
		h.Attributes[i] = StreamAttr{Name: a.Name, Kind: a.Kind.String()}
	}
	return h
}

// RecordsNDJSON writes src as NDJSON: one schema header line (StreamHeader)
// followed by one compact record line (RecordLines) per record. Records are
// encoded and written incrementally — beyond the writer's buffer, memory is
// one line plus src's escaped dictionaries.
func RecordsNDJSON(w io.Writer, src *dataset.Indexed) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	hdr, err := json.Marshal(HeaderFor(src))
	if err != nil {
		return fmt.Errorf("export: encoding stream header: %w", err)
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	err = RecordLines(src, func(line []byte) error {
		bw.Write(line)
		return bw.WriteByte('\n')
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// RecordsCSV writes src in the dataset package's CSV dialect (kind-
// annotated header, transaction items joined by opts.ItemSep), one record
// at a time. The output is byte-identical to Dataset.WriteCSV of
// src.Materialize().
func RecordsCSV(w io.Writer, src *dataset.Indexed, opts dataset.Options) error {
	itemSep := opts.ItemSep
	if itemSep == "" {
		itemSep = " "
	}
	cw := csv.NewWriter(w)
	if opts.Comma != 0 {
		cw.Comma = opts.Comma
	}
	attrs, trans := src.Attrs, src.TransName
	header := make([]string, 0, len(attrs)+1)
	for _, a := range attrs {
		header = append(header, a.Name+":"+a.Kind.String())
	}
	if trans != "" {
		header = append(header, trans+":transaction")
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("export: writing CSV header: %w", err)
	}
	row := make([]string, 0, len(header))
	var scanErr error
	src.ScanRecords(func(i int, rec dataset.Record) bool {
		row = row[:0]
		row = append(row, rec.Values...)
		if trans != "" {
			row = append(row, strings.Join(rec.Items, itemSep))
		}
		if err := cw.Write(row); err != nil {
			scanErr = fmt.Errorf("export: writing CSV row %d: %w", i, err)
			return false
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	cw.Flush()
	return cw.Error()
}
