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
// exactly what encoding/json gives the materialized record's
// {values, items,omitempty} struct: "values" is an array (empty, not
// null, for a dataset without relational attributes), "items" is omitted
// for an empty basket, and strings are escaped as json.Marshal escapes
// them.
//
// Every dictionary value is escaped once per call, and each line is
// appended from those literals by ID, so a line costs a few copies and no
// decoding. emit must not keep the line: its buffer is reused. emit's
// error stops the scan and is returned.
func RecordLines(src *dataset.Indexed, emit func(line []byte) error) error {
	dicts := make([][][]byte, len(src.Dicts))
	for a, d := range src.Dicts {
		dicts[a] = escapeDict(d)
	}
	var itemDict [][]byte
	if src.ItemDict != nil {
		itemDict = escapeDict(src.ItemDict)
	}
	vals := make([][]byte, len(src.Attrs))
	var items [][]byte
	var line []byte
	for r := 0; r < src.N; r++ {
		for a := range vals {
			vals[a] = dicts[a][src.Cols[a][r]]
		}
		items = items[:0]
		if src.ItemDict != nil {
			for _, id := range src.Items[r] {
				items = append(items, itemDict[id])
			}
		}
		line = frameLine(line[:0], vals, items)
		if err := emit(line); err != nil {
			return err
		}
	}
	return nil
}

// escapeDict returns the JSON literal of every value of d, indexed by ID
// and carved from one buffer. When an escaped value outgrows the
// estimate and the buffer moves, the earlier literals keep the old array.
func escapeDict(d *dataset.Interner) [][]byte {
	vals := d.Values()
	size := 0
	for _, v := range vals {
		size += len(v) + 2
	}
	buf, lits := make([]byte, 0, size), make([][]byte, 0, len(vals))
	for _, v := range vals {
		start := len(buf)
		buf = appendJSONString(buf, v)
		lits = append(lits, buf[start:])
	}
	return lits
}

// frameLine appends one record line built from its strings' JSON
// literals: vals, then items unless the basket is empty.
func frameLine(dst []byte, vals, items [][]byte) []byte {
	dst = append(dst, `{"values":`...)
	dst = appendArray(dst, vals)
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
