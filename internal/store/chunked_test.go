package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"secreta/internal/faultfs"
)

func newTestChunkedDir(t *testing.T) *ChunkedDir {
	t.Helper()
	b, err := newBlobDir(faultfs.OS, newDiag(nil), t.TempDir(), ".ndr")
	if err != nil {
		t.Fatal(err)
	}
	return &ChunkedDir{b}
}

func writeChunks(t *testing.T, c *ChunkedDir, name string, frames [][]byte) {
	t.Helper()
	w, err := c.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			w.Abort()
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func readChunks(c *ChunkedDir, name string) ([][]byte, error) {
	r, err := c.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out [][]byte
	for {
		p, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, append([]byte(nil), p...))
	}
}

// TestChunkedRoundTrip pins the frame format: what was written comes back
// frame by frame, in order, on every independent Open (replayability).
func TestChunkedRoundTrip(t *testing.T) {
	c := newTestChunkedDir(t)
	frames := [][]byte{
		[]byte(`{"meta":true}`),
		bytes.Repeat([]byte("x"), 200_000), // bigger than the reader's buffer
		[]byte("tail\n"),
	}
	writeChunks(t, c, "job-1", frames)
	for pass := 0; pass < 2; pass++ {
		got, err := readChunks(c, "job-1")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(frames) {
			t.Fatalf("pass %d: %d frames, want %d", pass, len(got), len(frames))
		}
		for i := range frames {
			if !bytes.Equal(got[i], frames[i]) {
				t.Fatalf("pass %d: frame %d diverges", pass, i)
			}
		}
	}
	if !c.Has("job-1") || c.Has("job-2") {
		t.Fatal("Has answers wrong")
	}
	s := c.Stats()
	if s.Count != 1 || s.Bytes == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestChunkedAtomicVisibility: nothing is visible before Commit, Abort
// leaves no trace, and Commit replaces a previous version atomically.
func TestChunkedAtomicVisibility(t *testing.T) {
	c := newTestChunkedDir(t)
	w, err := c.Create("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame([]byte("pending")); err != nil {
		t.Fatal(err)
	}
	if c.Has("job-1") {
		t.Fatal("uncommitted file is visible")
	}
	w.Abort()
	if c.Has("job-1") {
		t.Fatal("aborted file is visible")
	}
	writeChunks(t, c, "job-1", [][]byte{[]byte("v1")})
	writeChunks(t, c, "job-1", [][]byte{[]byte("v2")})
	got, err := readChunks(c, "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0]) != "v2" {
		t.Fatalf("got %q, want the replacing version", got)
	}
	if err := c.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("job-1"); !errors.Is(err, ErrNoBlob) {
		t.Fatalf("open after delete: %v, want ErrNoBlob", err)
	}
	if err := c.Delete("job-1"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

// TestChunkedCorruptionDetected flips one payload byte and expects the
// reader to refuse the frame rather than hand back damaged records.
func TestChunkedCorruptionDetected(t *testing.T) {
	c := newTestChunkedDir(t)
	writeChunks(t, c, "job-1", [][]byte{[]byte("meta"), []byte("records-chunk")})
	path := filepath.Join(c.dir, "job-1.ndr")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"payload-bit-flip", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-1] ^= 0x40
			return out
		}},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-3] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := readChunks(c, "job-1")
			if !errors.Is(err, ErrCorruptChunk) {
				t.Fatalf("got %v, want ErrCorruptChunk", err)
			}
		})
	}
}

// TestChunkedEmptyAndOversizedFrames pins writer-side validation.
func TestChunkedEmptyAndOversizedFrames(t *testing.T) {
	c := newTestChunkedDir(t)
	w, err := c.Create("job-1")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.WriteFrame(nil); err == nil {
		t.Fatal("empty frame accepted")
	}
	if err := w.WriteFrame([]byte("ok")); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedStoreWiring checks the Store exposes and counts the chunk
// files alongside the plain result blobs.
func TestChunkedStoreWiring(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Results.Put("j-000001", []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	writeChunks(t, st.ResultChunks, "j-000001", [][]byte{[]byte("meta"), []byte("chunk")})
	s := st.Stats()
	if s.Results.Count != 1 {
		t.Fatalf("results count = %d, want 1 (chunk files must not leak into the .json stats)", s.Results.Count)
	}
	if s.ResultStreams.Count != 1 || s.ResultStreams.Bytes == 0 {
		t.Fatalf("result_streams = %+v, want one counted stream", s.ResultStreams)
	}
	// One more frame check through the store handle, for the full path.
	got, err := readChunks(st.ResultChunks, "j-000001")
	if err != nil || len(got) != 2 {
		t.Fatalf("read through store: %v, %d frames", err, len(got))
	}
	_ = fmt.Sprintf("%v", got)
}
