package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync/atomic"
)

// fingerprints counts Fingerprint calls in this process.
var fingerprints atomic.Uint64

// FingerprintCount returns how many fingerprints this process has
// computed. Fingerprinting reads every value of the dataset, so the
// server's tests read the counter to check that one job hashes its input
// at most once.
func FingerprintCount() uint64 { return fingerprints.Load() }

// Fingerprint returns a content hash of the dataset: schema, transaction
// attribute, and every record in order. It is the dataset's ID: the
// registry keys datasets on it (a dataset_ref is a fingerprint), the
// durable store names and verifies blobs by it, and the engine's result
// cache keys on it — so the digest of a given dataset must never change.
// Every string is length-prefixed and every list is count-prefixed,
// making the encoding injective — no two distinct datasets serialize to
// the same byte stream. The hash is recomputed on every call and covers
// the dataset as it is now; datasets are editable, so a caller holding
// an earlier fingerprint (a dataset_ref, say) relies on nobody mutating
// that dataset since.
func (d *Dataset) Fingerprint() string {
	fingerprints.Add(1)
	e := fpEncoder{h: sha256.New(), buf: make([]byte, 0, fpChunk)}
	e.putLen(len(d.Attrs))
	for _, a := range d.Attrs {
		e.putStr(a.Name)
		e.putStr(a.Kind.String())
	}
	e.putStr(d.TransName)
	e.putLen(len(d.Records))
	for i := range d.Records {
		e.putLen(len(d.Records[i].Values))
		for _, v := range d.Records[i].Values {
			e.putStr(v)
		}
		e.putLen(len(d.Records[i].Items))
		for _, it := range d.Records[i].Items {
			e.putStr(it)
		}
	}
	e.flush()
	// The drained buffer takes the digest and then its hex form.
	sum := e.h.Sum(e.buf[:0])
	return string(hex.AppendEncode(sum[len(sum):], sum))
}

// fpChunk is the capacity of fpEncoder's buffer: the size of its writes
// to the hash.
const fpChunk = 8 << 10

// fpEncoder appends Fingerprint's byte stream — little-endian uint32
// lengths and raw string bytes — to a reused buffer and hashes it in
// writes of up to fpChunk bytes, not one small write per field.
type fpEncoder struct {
	h   hash.Hash
	buf []byte
}

func (e *fpEncoder) putLen(n int) {
	if len(e.buf)+4 > cap(e.buf) {
		e.flush()
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(n))
}

func (e *fpEncoder) putStr(s string) {
	e.putLen(len(s))
	for len(e.buf)+len(s) > cap(e.buf) {
		n := cap(e.buf) - len(e.buf)
		e.buf = append(e.buf, s[:n]...)
		s = s[n:]
		e.flush()
	}
	e.buf = append(e.buf, s...)
}

func (e *fpEncoder) flush() {
	e.h.Write(e.buf)
	e.buf = e.buf[:0]
}
