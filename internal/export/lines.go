package export

import (
	"unicode/utf8"

	"secreta/internal/dataset"
)

// RecordLines calls emit with the compact JSON line of each record of src,
// in record order and without a trailing newline:
//
//	{"values":["25","M"],"items":["a","b"]}
//
// It is the single definition of the record line format — the NDJSON
// writer, secreta-serve's streamed responses, its buffered documents and
// the store's chunked result frames all encode through it. The bytes are
// exactly what encoding/json gives the record's {values, items,omitempty}
// struct: "values" is null for a nil slice, "items" is omitted for an empty
// basket, and strings are escaped as json.Marshal escapes them.
//
// A *dataset.Indexed source is framed from its dictionaries, each value
// escaped once per call, so a line costs a few copies and no decoding;
// other sources escape each record's strings as they go. emit must not keep
// the line: its buffer is reused. emit's error stops the scan and is
// returned.
func RecordLines(src dataset.RecordSource, emit func(line []byte) error) error {
	if ix, ok := src.(*dataset.Indexed); ok {
		return indexedLines(ix, emit)
	}
	var line, arena []byte
	var vals, items [][]byte
	var err error
	src.ScanRecords(func(_ int, rec dataset.Record) bool {
		// Each literal is sliced off arena as it is written; when a later
		// append moves arena, the earlier slices keep the old array.
		arena, vals = appendLiterals(arena[:0], vals[:0], rec.Values)
		arena, items = appendLiterals(arena, items[:0], rec.Items)
		line = frameLine(line[:0], vals, rec.Values == nil, items)
		err = emit(line)
		return err == nil
	})
	return err
}

// indexedLines is RecordLines over interned columns: every dictionary
// value is escaped once, and each line is appended from those literals by
// ID.
func indexedLines(ix *dataset.Indexed, emit func(line []byte) error) error {
	dicts := make([][][]byte, len(ix.Dicts))
	for a, d := range ix.Dicts {
		dicts[a] = escapeDict(d)
	}
	var itemDict [][]byte
	if ix.ItemDict != nil {
		itemDict = escapeDict(ix.ItemDict)
	}
	vals := make([][]byte, len(ix.Attrs))
	var items [][]byte
	var line []byte
	for r := 0; r < ix.N; r++ {
		for a := range vals {
			vals[a] = dicts[a][ix.Cols[a][r]]
		}
		items = items[:0]
		if ix.ItemDict != nil {
			for _, id := range ix.Items[r] {
				items = append(items, itemDict[id])
			}
		}
		line = frameLine(line[:0], vals, false, items)
		if err := emit(line); err != nil {
			return err
		}
	}
	return nil
}

// escapeDict returns the JSON literal of every value of d, indexed by ID
// and carved from one buffer.
func escapeDict(d *dataset.Interner) [][]byte {
	vals := d.Values()
	size := 0
	for _, v := range vals {
		size += len(v) + 2
	}
	_, lits := appendLiterals(make([]byte, 0, size), make([][]byte, 0, len(vals)), vals)
	return lits
}

// appendLiterals appends the JSON literal of each of ss to buf and a slice
// of buf holding it to lits.
func appendLiterals(buf []byte, lits [][]byte, ss []string) ([]byte, [][]byte) {
	for _, s := range ss {
		start := len(buf)
		buf = appendJSONString(buf, s)
		lits = append(lits, buf[start:])
	}
	return buf, lits
}

// frameLine appends one record line built from its strings' JSON
// literals: vals, or null when nullVals (a nil Values slice), then items
// unless the basket is empty.
func frameLine(dst []byte, vals [][]byte, nullVals bool, items [][]byte) []byte {
	dst = append(dst, `{"values":`...)
	if nullVals {
		dst = append(dst, "null"...)
	} else {
		dst = appendArray(dst, vals)
	}
	if len(items) > 0 {
		dst = append(dst, `,"items":`...)
		dst = appendArray(dst, items)
	}
	return append(dst, '}')
}

func appendArray(dst []byte, lits [][]byte) []byte {
	dst = append(dst, '[')
	for i, l := range lits {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l...)
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string literal carries unescaped
// under encoding/json's HTML-safe rules: printable, and none of " \ < > &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		safe[b] = true
	}
	for _, b := range `"\<>&` {
		safe[b] = false
	}
	return safe
}()

// appendJSONString appends s as a JSON string literal, quotes included,
// byte for byte as json.Marshal writes it: " and \ backslash-escaped,
// \b \f \n \r \t by name, other control bytes and < > & as \u00XX, each
// invalid UTF-8 byte as \ufffd, and U+2028/U+2029 as \u2028/\u2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
