package dataset

import (
	"reflect"
	"testing"
)

func sourceFixture(t *testing.T) *Dataset {
	t.Helper()
	ds := New([]Attribute{{Name: "Age", Kind: Numeric}, {Name: "Sex", Kind: Categorical}}, "Items")
	rows := []Record{
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

// collect deep-copies every record a scan yields (the scan may reuse its
// slices between callbacks).
func collect(src *Indexed) []Record {
	var out []Record
	src.ScanRecords(func(i int, rec Record) bool {
		out = append(out, rec.Clone())
		return true
	})
	return out
}

// TestRecordSourceIndexedMatchesDataset pins the streaming contract:
// scanning an interning yields exactly the records of the dataset it was
// interned from, in order, with an identical schema — and stays
// replayable.
func TestRecordSourceIndexedMatchesDataset(t *testing.T) {
	ds := sourceFixture(t)
	ix := Intern(ds)
	if !reflect.DeepEqual(ix.Attrs, ds.Attrs) || ix.TransName != ds.TransName {
		t.Fatalf("schema mismatch: %v/%q", ix.Attrs, ix.TransName)
	}
	if ix.N != len(ds.Records) {
		t.Fatalf("N = %d, want %d", ix.N, len(ds.Records))
	}
	// Two scans must agree (replayability).
	first, second := collect(ix), collect(ix)
	if !reflect.DeepEqual(first, ds.Records) {
		t.Fatalf("scan diverges from records:\ngot  %v\nwant %v", first, ds.Records)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second scan diverges: %v vs %v", first, second)
	}
}

// TestRecordSourceEarlyStop checks that returning false stops the scan.
func TestRecordSourceEarlyStop(t *testing.T) {
	n := 0
	Intern(sourceFixture(t)).ScanRecords(func(i int, rec Record) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("scan visited %d records after stop, want 1", n)
	}
}

// TestIndexedScanAllocs pins that streaming from the interned form does
// not allocate per record (the whole point of skipping Materialize): the
// scratch slices are reused across the scan.
func TestIndexedScanAllocs(t *testing.T) {
	ds := sourceFixture(t)
	for i := 0; i < 200; i++ {
		ds.AddRecord(Record{Values: []string{"40", "M"}, Items: []string{"a", "c"}})
	}
	ix := Intern(ds)
	allocs := testing.AllocsPerRun(10, func() {
		ix.ScanRecords(func(i int, rec Record) bool { return true })
	})
	// Two scratch slices per scan; the loop body must not allocate.
	if allocs > 4 {
		t.Fatalf("ScanRecords allocates %.0f times per scan, want <= 4", allocs)
	}
}
