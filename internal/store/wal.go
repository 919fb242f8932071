package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"secreta/internal/faultfs"
)

// Frame codec, shared by WAL records and chunk-file frames (chunked.go):
//
//	[4 bytes little-endian payload length]
//	[4 bytes little-endian CRC-32 (IEEE) of the payload]
//	[payload bytes]
//
// WAL replay walks records from the start and stops at the first frame
// that does not check out — a short header, an implausible length, a
// short payload, or a CRC mismatch. Everything before that point is
// valid by construction (appends are sequential and fsync'd), so a crash
// mid-append loses at most the record being written, never earlier
// history. A chunk reader reports such a frame as ErrCorruptChunk.
const walHeaderSize = 8

// putFrameHeader writes payload's frame header into hdr[:walHeaderSize].
func putFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
}

// frameLen decodes the payload length from a frame header.
func frameLen(hdr []byte) int { return int(binary.LittleEndian.Uint32(hdr[0:4])) }

// frameIntact reports whether payload matches the checksum in its header.
func frameIntact(hdr, payload []byte) bool {
	return crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(hdr[4:8])
}

// maxWALRecord bounds a single record's payload. It exists purely as a
// corruption guard during replay: a frame whose length field exceeds it is
// treated as the torn tail, not as a 4 GiB allocation request. Real
// records (job transitions, request bodies) sit far below it.
const maxWALRecord = 256 << 20

// appendWALRecord frames payload and appends it to f, fsyncing before
// returning so the record is durable when the caller's state transition
// becomes observable.
func appendWALRecord(f faultfs.File, payload []byte) error {
	if len(payload) > maxWALRecord {
		return fmt.Errorf("store: WAL record of %d bytes exceeds the %d byte frame limit", len(payload), maxWALRecord)
	}
	frame := make([]byte, walHeaderSize+len(payload))
	putFrameHeader(frame, payload)
	copy(frame[walHeaderSize:], payload)
	if _, err := f.Write(frame); err != nil {
		return fmt.Errorf("store: appending WAL record: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: syncing WAL: %w", err)
	}
	return nil
}

// scanWAL walks the framed records in data and returns the payloads of
// every valid record, the byte offset up to which the log is valid, and
// whether trailing bytes past that offset were dropped (a torn or corrupt
// tail). It never fails: an unreadable tail is data loss already — the
// job of replay is to salvage the prefix, not to veto the boot.
func scanWAL(data []byte) (records [][]byte, valid int64, torn bool) {
	off := 0
	for {
		if off == len(data) {
			return records, int64(off), false
		}
		if len(data)-off < walHeaderSize {
			return records, int64(off), true
		}
		hdr := data[off : off+walHeaderSize]
		n := frameLen(hdr)
		if n > maxWALRecord || len(data)-off-walHeaderSize < n {
			return records, int64(off), true
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+n]
		if !frameIntact(hdr, payload) {
			return records, int64(off), true
		}
		records = append(records, payload)
		off += walHeaderSize + n
	}
}
