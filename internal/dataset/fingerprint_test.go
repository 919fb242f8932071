package dataset

import (
	"strings"
	"testing"
)

func fpDataset(t *testing.T, records []Record) *Dataset {
	t.Helper()
	ds := New([]Attribute{{Name: "A", Kind: Categorical}}, "T")
	for _, r := range records {
		if err := ds.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	a := fpDataset(t, []Record{{Values: []string{"x"}, Items: []string{"i"}}})
	b := fpDataset(t, []Record{{Values: []string{"x"}, Items: []string{"i"}}})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal datasets fingerprint differently")
	}
	c := fpDataset(t, []Record{{Values: []string{"y"}, Items: []string{"i"}}})
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different values share a fingerprint")
	}
}

// TestFingerprintFramingInjective pins the encoding against framing
// collisions: values and items containing would-be separator strings must
// not let two different datasets serialize identically, since the engine
// cache would then serve one dataset's results for the other.
func TestFingerprintFramingInjective(t *testing.T) {
	a := fpDataset(t, []Record{
		{Values: []string{"v"}, Items: []string{"!", ";"}},
		{Values: []string{"|"}, Items: nil},
	})
	b := fpDataset(t, []Record{
		{Values: []string{"v"}, Items: []string{"!"}},
		{Values: []string{";"}, Items: []string{"|"}},
	})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("datasets with shifted value/item framing collide")
	}
	// Moving an item across a record boundary must also change the hash.
	c := fpDataset(t, []Record{
		{Values: []string{"v"}, Items: []string{"i", "j"}},
		{Values: []string{"w"}, Items: nil},
	})
	d := fpDataset(t, []Record{
		{Values: []string{"v"}, Items: []string{"i"}},
		{Values: []string{"w"}, Items: []string{"j"}},
	})
	if c.Fingerprint() == d.Fingerprint() {
		t.Fatal("item moved across records does not change the fingerprint")
	}
}

// TestFingerprintPinned pins the digest bytes. Dataset IDs are the
// fingerprints and are visible on the wire (dataset_ref, the durable
// store's blob names), so the encoding must never drift. The fixtures
// carry NUL and multibyte values, an empty basket, a value long enough
// to cross any buffering boundary, and a dataset with no transaction
// attribute.
func TestFingerprintPinned(t *testing.T) {
	long := strings.Repeat("ab\x00ç", 20000)
	tx := New([]Attribute{{Name: "Âge", Kind: Numeric}, {Name: "nul\x00name", Kind: Categorical}}, "Items")
	for _, r := range []Record{
		{Values: []string{"42", "x\x00y"}, Items: []string{"café", "日本"}},
		{Values: []string{"", "é"}, Items: nil},
		{Values: []string{"7", long}, Items: []string{"\x00", long}},
	} {
		if err := tx.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	rel := New([]Attribute{{Name: "Zip", Kind: Categorical}}, "")
	for _, v := range []string{"12345", "", "straße\x00"} {
		if err := rel.AddRecord(Record{Values: []string{v}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		ds   *Dataset
		want string
	}{
		{"transaction", tx, "a82b131dcbc04070a09ab34713f40293363902c163878122cbccef4dd1682f11"},
		{"relational-only", rel, "e84dc625e5b0b46de7cd01d600426542621f9b997c594a0d55de760975e798cf"},
		{"empty", New(nil, ""), "15ec7bf0b50732b49f8228e07d24365338f9e3ab994b00af08e5a3bffe55fd8b"},
	} {
		if got := tc.ds.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint() = %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
