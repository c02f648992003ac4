package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"react/internal/taskq"
)

// WAL framing: every record is one frame on disk,
//
//	[4B little-endian payload length][4B CRC32C of payload][payload JSON]
//
// Length-prefixing makes scanning cheap; the checksum catches both torn
// writes (the crash window between append and fsync) and at-rest
// corruption. walkFrames tells those two apart: damage followed only by
// unreadable bytes is a torn tail and recovery truncates it, damage with a
// provably valid frame beyond it means the middle of the log is gone and
// recovery must refuse rather than silently drop the records in between.

const frameHeaderLen = 8

// maxRecordBytes bounds a single frame's payload. Real records are a few
// hundred bytes; the bound keeps a corrupt length prefix from asking the
// decoder to allocate gigabytes.
const maxRecordBytes = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks damage recovery must not paper over: checksummed frames
// exist beyond the failure point, so truncating would silently drop
// acknowledged records.
var ErrCorrupt = errors.New("journal: log corrupt")

// appendFrame encodes rec and appends its frame to dst. The payload is
// written in place behind a header patched in afterwards, so a record in
// canonical form (codec.go) costs no allocation beyond dst's own growth.
func appendFrame(dst []byte, rec Record) ([]byte, error) {
	if err := rec.validate(); err != nil {
		return dst, err
	}
	start := len(dst)
	var hdr [frameHeaderLen]byte
	out, err := appendRecord(append(dst, hdr[:]...), &rec)
	if err != nil {
		return dst, fmt.Errorf("journal: encode record: %w", err)
	}
	payload := out[start+frameHeaderLen:]
	if len(payload) > maxRecordBytes {
		return dst, fmt.Errorf("journal: record of %d bytes exceeds frame bound", len(payload))
	}
	binary.LittleEndian.PutUint32(out[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[start+4:], crc32.Checksum(payload, castagnoli))
	return out, nil
}

// decodeFrame tries to decode one frame starting at off into *rec, with any
// task state in *task (see decodeRecord). ok reports a complete, checksummed,
// decodable frame; next is the offset just past it.
func decodeFrame(buf []byte, off int, rec *Record, task *taskq.Record) (next int, ok bool) {
	if off+frameHeaderLen > len(buf) {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
	if n <= 0 || n > maxRecordBytes || off+frameHeaderLen+n > len(buf) {
		return 0, false
	}
	payload := buf[off+frameHeaderLen : off+frameHeaderLen+n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[off+4:off+8]) {
		return 0, false
	}
	if decodeRecord(payload, rec, task) != nil || rec.validate() != nil {
		return 0, false
	}
	return off + frameHeaderLen + n, true
}

// walkBufBytes is the read buffer walkFrames streams a log through: a
// segment grows to the size of a snapshot, and is never held in memory whole.
const walkBufBytes = 64 << 10

// walkFrames reads r from the start, handing fn every valid frame in order,
// and returns the number of trailing bytes that form a torn tail. Frames are
// read through a walkBufBytes buffer into one reused frame buffer; the record
// fn receives, and the task state it points to, are reused for the next
// frame too: fn copies what it keeps (decoded strings are copies already).
// An error from fn ends the walk and is returned as is. If the walk stops
// before the end but another valid frame with a larger sequence number
// exists anywhere beyond the stop point, the damage is mid-log and the error
// wraps ErrCorrupt.
func walkFrames(r io.Reader, fn func(*Record) error) (tornBytes int, err error) {
	var (
		rec     Record
		task    taskq.Record
		lastSeq uint64
		off     int
	)
	br := bufio.NewReaderSize(r, walkBufBytes)
	frame := make([]byte, frameHeaderLen)
	for {
		got, rerr := io.ReadFull(br, frame[:frameHeaderLen])
		if rerr == io.EOF {
			return 0, nil // the log ends on a frame boundary
		}
		if rerr == nil {
			if n := int(binary.LittleEndian.Uint32(frame)); n > 0 && n <= maxRecordBytes {
				frame = slices.Grow(frame[:frameHeaderLen], n)[:frameHeaderLen+n]
				got, rerr = io.ReadFull(br, frame[frameHeaderLen:])
				got += frameHeaderLen
			}
		}
		if rerr == io.EOF {
			rerr = io.ErrUnexpectedEOF // a header with no payload behind it
		}
		if rerr != nil && rerr != io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("journal: read log: %w", rerr)
		}
		if _, ok := decodeFrame(frame[:got], 0, &rec, &task); !ok {
			// The frame at off is damaged. Only now is the rest of the log read
			// in, to probe it for survivors.
			rest, rerr := io.ReadAll(br)
			if rerr != nil {
				return 0, fmt.Errorf("journal: read log: %w", rerr)
			}
			return probeDamage(append(frame[:got], rest...), off, lastSeq)
		}
		if err := fn(&rec); err != nil {
			return 0, err
		}
		lastSeq, off = rec.Seq, off+got
	}
}

// probeDamage judges a walk that stopped at a frame it could not read: tail
// is the log from that frame (at offset off) to the end, lastSeq the last
// record read before it. A torn tail is reported as its length; any later
// frame that still checks out means the damage is mid-log.
func probeDamage(tail []byte, off int, lastSeq uint64) (tornBytes int, err error) {
	var (
		rec  Record
		task taskq.Record
	)
	// A CRC32C + JSON + sequence match on random garbage is vanishingly
	// unlikely, so a hit means real records lie beyond the damage.
	for probe := 1; probe+frameHeaderLen < len(tail); probe++ {
		if _, ok := decodeFrame(tail, probe, &rec, &task); ok && rec.Seq > lastSeq {
			return 0, fmt.Errorf(
				"%w: unreadable bytes at offset %d but a valid frame (seq %d) survives at offset %d",
				ErrCorrupt, off, rec.Seq, off+probe)
		}
	}
	return len(tail), nil
}
