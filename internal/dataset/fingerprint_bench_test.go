package dataset_test

import (
	"testing"

	"secreta/internal/gen"
)

// BenchmarkFingerprint hashes a 2,000-record census with 24-item baskets,
// the size and shape of the dataset the anon-miss workload uploads.
func BenchmarkFingerprint(b *testing.B) {
	ds := gen.Census(gen.Config{Records: 2000, Items: 24, Seed: 1})
	b.ReportAllocs()
	for b.Loop() {
		ds.Fingerprint()
	}
}
