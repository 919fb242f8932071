package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"testing"
	"unicode/utf8"

	"secreta/internal/dataset"
	"secreta/internal/gen"
)

// recordJSON is the record shape RecordLines must reproduce byte for byte:
// json.Marshal of it is the oracle for every line.
type recordJSON struct {
	Values []string `json:"values"`
	Items  []string `json:"items,omitempty"`
}

// oracleLines marshals every record src's ScanRecords yields.
func oracleLines(t testing.TB, src *dataset.Indexed) [][]byte {
	t.Helper()
	var lines [][]byte
	src.ScanRecords(func(i int, rec dataset.Record) bool {
		b, err := json.Marshal(recordJSON{Values: rec.Values, Items: rec.Items})
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		lines = append(lines, b)
		return true
	})
	return lines
}

// checkLines asserts that RecordLines over src emits exactly the oracle's
// lines.
func checkLines(t testing.TB, name string, src *dataset.Indexed) {
	t.Helper()
	want := oracleLines(t, src)
	i := 0
	err := RecordLines(src, func(line []byte) error {
		if i >= len(want) {
			return fmt.Errorf("extra line %q", line)
		}
		if !bytes.Equal(line, want[i]) {
			return fmt.Errorf("record %d: got %q, want %q", i, line, want[i])
		}
		i++
		return nil
	})
	if err == nil && i != len(want) {
		err = fmt.Errorf("emitted %d lines, want %d", i, len(want))
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestAppendJSONStringMatchesMarshal checks the escaper against
// json.Marshal on every single byte, the runes it treats specially and
// mixed strings.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	cases := []string{
		"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
		"\b\f\n\r\t\x00\x01\x1f\x7f", "héllo wörld", "日本語", "emoji 😀",
		"\u2028line\u2029para", "\ufffd valid replacement char",
		"bad \xff byte", "truncated \xe2\x80", "\xc0\x80 overlong", "\xed\xa0\x80 surrogate",
		"tail \xe2",
	}
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"z")
	}
	for _, r := range []rune{0x80, 0x7ff, 0x800, 0x2027, 0x2028, 0x2029, 0x202a, 0xfffd, 0xffff, 0x10000, utf8.MaxRune} {
		cases = append(cases, string(r))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("prefix"), s); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("appendJSONString(%q) = %q, want prefix%q", s, got, want)
		}
	}
}

// TestRecordLinesShape pins the framing edge cases: no relational
// attributes, empty baskets, no transaction attribute, zero records.
// Without relational attributes every record's values are an empty
// array, whether its string form held a nil or an empty slice.
func TestRecordLinesShape(t *testing.T) {
	noAttrs := &dataset.Dataset{TransName: "T", Records: []dataset.Record{
		{},                                      // nil values: []
		{Values: []string{}},                    // empty values: []
		{Values: []string{}, Items: []string{}}, // empty basket: omitted
		{Items: []string{"<a>", "b"}},
	}}
	relational := &dataset.Dataset{
		Attrs:   []dataset.Attribute{{Name: "A"}, {Name: "B"}},
		Records: []dataset.Record{{Values: []string{"x", "y&z"}}, {Values: []string{"", "\n"}}},
	}
	empty := &dataset.Dataset{Attrs: []dataset.Attribute{{Name: "A"}}, TransName: "T"}
	for name, ds := range map[string]*dataset.Dataset{
		"no-attrs": noAttrs, "relational": relational, "empty": empty, "fixture": streamFixture(t),
	} {
		checkLines(t, name, dataset.Intern(ds))
	}
	var got []string
	RecordLines(dataset.Intern(noAttrs), func(line []byte) error {
		got = append(got, string(line))
		return nil
	})
	want := []string{`{"values":[]}`, `{"values":[]}`, `{"values":[]}`, `{"values":[],"items":["\u003ca\u003e","b"]}`}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lines = %q, want %q", got, want)
	}
}

// TestRecordLinesStopsOnEmitError checks that emit's error ends the scan
// and comes back unchanged.
func TestRecordLinesStopsOnEmitError(t *testing.T) {
	stop := errors.New("stop")
	calls := 0
	err := RecordLines(dataset.Intern(streamFixture(t)), func([]byte) error {
		calls++
		return stop
	})
	if !errors.Is(err, stop) || calls != 1 {
		t.Fatalf("err %v after %d calls, want %v after 1", err, calls, stop)
	}
}

// TestRecordLinesIndexedAllocs checks that an Indexed stream allocates
// for its columns and dictionaries, not per record: the count is the same
// at 200 records as at 2,000 over the same domain.
func TestRecordLinesIndexedAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		ix := dataset.Intern(gen.Census(gen.Config{Records: n, Items: 24, Seed: 1}))
		checkLines(t, fmt.Sprintf("census-%d", n), ix)
		return testing.AllocsPerRun(5, func() {
			RecordLines(ix, func([]byte) error { return nil })
		})
	}
	small, large := allocs(200), allocs(2000)
	if large > small+4 {
		t.Fatalf("RecordLines allocates %.0f times over 2,000 records and %.0f over 200: want no per-record allocation", large, small)
	}
}

// FuzzRecordLinesMatchJSON builds random records — strings with HTML
// characters, control bytes, invalid UTF-8 and U+2028/2029, empty strings,
// nil and empty values, empty baskets — and checks RecordLines over their
// dataset.Intern form against json.Marshal.
func FuzzRecordLinesMatchJSON(f *testing.F) {
	f.Add([]byte("\x02\x01\x03<a>\x02&b\x01\x00\x00\x05\x00"))
	f.Add([]byte("\x00\x01\x00\x01\x02\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLines(t, "indexed", dataset.Intern(fuzzRecords(data)))
	})
}

// fuzzRecords decodes a dataset from fuzz input: byte 0 sets the number
// of attributes (0–3) and byte 1 the transaction attribute (low bit); the
// rest is a stream of length-prefixed strings (length byte mod 8). Each
// record takes one shape byte — bit 0 asks for nil values when there are
// no attributes, bits 1–2 a basket size (0 as a nil or, with bit 3, an
// empty basket) — followed by its values and items.
func fuzzRecords(data []byte) *dataset.Dataset {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	str := func() string {
		n, _ := next()
		n %= 8
		if int(n) > len(data) {
			n = byte(len(data))
		}
		s := string(data[:n])
		data = data[n:]
		return s
	}
	head, _ := next()
	flags, _ := next()
	ds := &dataset.Dataset{}
	for a := 0; a < int(head%4); a++ {
		ds.Attrs = append(ds.Attrs, dataset.Attribute{Name: fmt.Sprintf("A%d", a)})
	}
	if flags&1 == 1 {
		ds.TransName = "T"
	}
	for len(data) > 0 && len(ds.Records) < 64 {
		shape, _ := next()
		var rec dataset.Record
		if len(ds.Attrs) > 0 || shape&1 == 0 {
			rec.Values = make([]string, len(ds.Attrs))
		}
		for a := range rec.Values {
			rec.Values[a] = str()
		}
		if ds.HasTransaction() {
			if shape&8 != 0 {
				rec.Items = []string{}
			}
			for i := 0; i < int(shape>>1&3); i++ {
				rec.Items = append(rec.Items, str())
			}
			sort.Strings(rec.Items)
		}
		ds.Records = append(ds.Records, rec)
	}
	return ds
}
