package export

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/gen"
)

func streamFixture(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{
		{Name: "Age", Kind: dataset.Numeric},
		{Name: "Sex", Kind: dataset.Categorical},
	}, "Items")
	rows := []dataset.Record{
		{Values: []string{"25", "M"}, Items: []string{"b", "a"}},
		{Values: []string{"30", "F"}},
		{Values: []string{"25", "F"}, Items: []string{"c"}},
	}
	for _, r := range rows {
		if err := ds.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestRecordsNDJSONMatchesBufferedJSON pins the byte-identity contract:
// every streamed record line is exactly the compact form of the same
// record in Dataset.WriteJSON's buffered output of the dataset the
// records were interned from.
func TestRecordsNDJSONMatchesBufferedJSON(t *testing.T) {
	ds := streamFixture(t)

	var stream bytes.Buffer
	if err := RecordsNDJSON(&stream, dataset.Intern(ds)); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(stream.String(), "\n"), "\n")
	if len(lines) != 1+len(ds.Records) {
		t.Fatalf("stream has %d lines, want %d", len(lines), 1+len(ds.Records))
	}
	var hdr StreamHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("decoding header: %v", err)
	}
	if hdr.Records != len(ds.Records) || hdr.Transaction != "Items" || len(hdr.Attributes) != 2 {
		t.Fatalf("bad header: %+v", hdr)
	}

	// The buffered path: WriteJSON, then compact each element of its
	// records array and compare byte-for-byte with the streamed lines.
	var buffered bytes.Buffer
	if err := ds.WriteJSON(&buffered); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(buffered.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for i, raw := range doc.Records {
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatal(err)
		}
		if got := lines[1+i]; got != compact.String() {
			t.Fatalf("record %d: streamed %q, buffered-compact %q", i, got, compact.String())
		}
	}

	// Round-trip: rebuilding a dataset from the stream restores equality.
	rebuilt := dataset.New(ds.Attrs, ds.TransName)
	sc := bufio.NewScanner(bytes.NewReader(stream.Bytes()))
	sc.Scan() // header
	for sc.Scan() {
		var rec struct {
			Values []string `json:"values"`
			Items  []string `json:"items"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.AddRecord(dataset.Record{Values: rec.Values, Items: rec.Items}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(rebuilt.Records, ds.Records) {
		t.Fatalf("stream round-trip diverges:\n%v\nvs\n%v", rebuilt.Records, ds.Records)
	}
}

// TestRecordsCSVMatchesWriteCSV pins the streaming CSV writer against the
// buffered Dataset.WriteCSV of the dataset the records were interned
// from, byte for byte.
func TestRecordsCSVMatchesWriteCSV(t *testing.T) {
	ds := streamFixture(t)
	var want, got bytes.Buffer
	if err := ds.WriteCSV(&want, dataset.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := RecordsCSV(&got, dataset.Intern(ds), dataset.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("CSV stream diverges:\n%s\nvs\n%s", &got, &want)
	}
}

// TestRecordsNDJSONIndependentOfCache streams a transaction run over a
// dataset with no relational attributes, once as run without a result
// cache (`secreta evaluate -stream ndjson`) and once through a cached
// scheduler (as secreta-serve runs it): both publish the same interned
// records, so the streams are byte-identical and every record's values
// are an empty array.
func TestRecordsNDJSONIndependentOfCache(t *testing.T) {
	ds := dataset.New(nil, "Diag")
	for _, items := range [][]string{{"a", "b"}, {"a", "b"}, {"a", "c"}, {"b", "c"}} {
		if err := ds.AddRecord(dataset.Record{Values: []string{}, Items: items}); err != nil {
			t.Fatal(err)
		}
	}
	ih, err := gen.ItemHierarchy(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Mode: engine.Transactional, Algorithm: "apriori", K: 2, M: 1, ItemHierarchy: ih}
	var streams [2]bytes.Buffer
	for i, cache := range []*engine.Cache{nil, engine.NewCacheSized(8, 0)} {
		results, err := engine.NewScheduler(1, cache).RunAll(context.Background(), engine.NewInput(ds), []engine.Config{cfg})
		if err != nil || results[0].Err != nil {
			t.Fatal(err, results[0].Err)
		}
		if err := RecordsNDJSON(&streams[i], results[0].Records); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(streams[0].Bytes(), streams[1].Bytes()) {
		t.Fatalf("uncached stream\n%s\ndiffers from cached stream\n%s", &streams[0], &streams[1])
	}
	lines := strings.Split(strings.TrimRight(streams[0].String(), "\n"), "\n")
	if want := `{"values":[],"items":["a","b"]}`; len(lines) != 1+ds.Len() || lines[1] != want {
		t.Fatalf("stream lines %q, want %d with the first record %s", lines, 1+ds.Len(), want)
	}
}
