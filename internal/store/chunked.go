package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"secreta/internal/faultfs"
)

// Chunked result blobs: the framed on-disk format streaming result
// delivery reads straight from disk, chunk by chunk, so serving an
// N-record result costs O(chunk) memory no matter how large N is.
//
// A chunk file is a sequence of non-empty frames in the WAL's layout
// (the frame codec in wal.go). Frame 0 is a caller-defined meta payload;
// every following frame is an opaque chunk of the record stream. Files
// are written through an fsync'd temp file + rename, so like every other
// blob a crash leaves either the whole file or nothing — there is no
// torn-tail repair to do, the frames exist purely so a *reader* never
// has to hold more than one in memory.

// ErrCorruptChunk reports a frame whose checksum or length does not match
// its payload — the file is damaged and the caller should treat the whole
// blob as lost.
var ErrCorruptChunk = errors.New("store: corrupt chunk frame")

// maxChunkFrame caps a single frame so a corrupt length field cannot make
// a reader allocate gigabytes. Writers chunk well below this.
const maxChunkFrame = 16 << 20

// ChunkedDir stores framed chunk files in one directory: a BlobDir (same
// naming rules, listing, stats and deletion) whose files are written and
// read frame by frame instead of whole.
type ChunkedDir struct{ *BlobDir }

// Create opens a writer for the named chunk file. Nothing is visible
// under name until Commit; Abort (or a crash) leaves any previous file
// untouched.
func (c *ChunkedDir) Create(name string) (*ChunkWriter, error) {
	p, err := c.path(name)
	if err != nil {
		return nil, err
	}
	tmp, err := c.fsys.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return nil, err
	}
	return &ChunkWriter{
		fsys: c.fsys,
		f:    tmp,
		bw:   bufio.NewWriterSize(tmp, 256<<10),
		dest: p,
	}, nil
}

// ChunkWriter appends frames to a pending chunk file.
type ChunkWriter struct {
	fsys faultfs.FS
	f    faultfs.File
	bw   *bufio.Writer
	dest string
	hdr  [walHeaderSize]byte
	done bool
}

// WriteFrame appends one frame. Frames must be non-empty — a zero-length
// record chunk carries no information and is rejected to keep the format
// unambiguous.
func (w *ChunkWriter) WriteFrame(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("store: empty chunk frame")
	}
	if len(payload) > maxChunkFrame {
		return fmt.Errorf("store: chunk frame of %d bytes exceeds the %d cap", len(payload), maxChunkFrame)
	}
	putFrameHeader(w.hdr[:], payload)
	if _, err := w.bw.Write(w.hdr[:]); err != nil {
		return err
	}
	_, err := w.bw.Write(payload)
	return err
}

// Commit flushes, fsyncs and atomically publishes the file under its
// destination name, replacing any previous version.
func (w *ChunkWriter) Commit() error {
	if w.done {
		return fmt.Errorf("store: chunk writer already finished")
	}
	w.done = true
	if err := w.bw.Flush(); err != nil {
		discardTemp(w.fsys, w.f)
		return err
	}
	return commitTemp(w.fsys, w.f, w.dest)
}

// Abort discards the pending file. Safe to call after Commit (no-op).
func (w *ChunkWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	discardTemp(w.fsys, w.f)
}

// Open positions a reader at the named file's first frame; a missing file
// answers ErrNoBlob. Each Open is an independent pass over the frames, so
// a stream is replayed by simply opening again.
func (c *ChunkedDir) Open(name string) (*ChunkReader, error) {
	p, err := c.path(name)
	if err != nil {
		return nil, err
	}
	f, err := c.fsys.Open(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNoBlob, name)
	}
	if err != nil {
		return nil, err
	}
	return &ChunkReader{c: f, br: bufio.NewReaderSize(f, 256<<10)}, nil
}

// newChunkReader wraps an arbitrary byte stream in a ChunkReader. The
// on-disk Open path adds a file and a Close; this is the seam the frame
// decoder's tests and fuzzers use to feed it raw bytes.
func newChunkReader(r io.Reader) *ChunkReader {
	return &ChunkReader{br: bufio.NewReaderSize(r, 256<<10)}
}

// ChunkReader iterates a chunk file frame by frame.
type ChunkReader struct {
	c   io.Closer
	br  *bufio.Reader
	buf []byte
}

// Next returns the next frame's payload, io.EOF after the last frame, or
// ErrCorruptChunk when a frame fails its checksum. The returned slice is
// reused by the following Next call.
func (r *ChunkReader) Next() ([]byte, error) {
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		// A partial header cannot happen on a committed file; report it as
		// corruption, not a clean end.
		return nil, fmt.Errorf("%w: truncated frame header", ErrCorruptChunk)
	}
	n := frameLen(hdr[:])
	if n == 0 || n > maxChunkFrame {
		return nil, fmt.Errorf("%w: implausible frame length %d", ErrCorruptChunk, n)
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return nil, fmt.Errorf("%w: truncated frame payload", ErrCorruptChunk)
	}
	if !frameIntact(hdr[:], r.buf) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptChunk)
	}
	return r.buf, nil
}

// Close releases the underlying file, if any.
func (r *ChunkReader) Close() error {
	if r.c == nil {
		return nil
	}
	return r.c.Close()
}
