package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"react/internal/event"
	"react/internal/taskq"
)

// Snapshot format: line-oriented JSON, so the file streams and diffs well
// and the profile section can reuse profile.WriteSnapshot verbatim.
//
//	line 1                  header {v, seq, tasks, workers, stats}
//	lines 2..1+tasks        one taskq.Record per line, sorted by task ID
//	next `workers` lines    profile.Registry snapshot lines
//	last line               trailer {"eof":true}
//
// The header's counts plus the trailer make truncation detectable: a
// snapshot either reads back whole or recovery refuses it. Writes go
// through a temp file, fsync, rename, and directory fsync, so a crash
// mid-snapshot leaves the previous snapshot untouched.

const snapshotVersion = 1

type snapshotHeader struct {
	V       int         `json:"v"`
	Seq     uint64      `json:"seq"`
	Tasks   int         `json:"tasks"`
	Workers int         `json:"workers"`
	Stats   event.Tally `json:"stats"`
}

const snapshotTrailer = `{"eof":true}` + "\n"

func snapshotName(seq uint64) string { return fmt.Sprintf("snapshot-%016x.snap", seq) }

const snapshotTmp = "snapshot.tmp"

// writeSnapshot persists st as the snapshot covering sequence numbers
// 1..seq and returns the final path and the file's size.
func writeSnapshot(dir string, st *State, seq uint64) (string, int64, error) {
	tmp := filepath.Join(dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", 0, fmt.Errorf("journal: create snapshot: %w", err)
	}
	if err := encodeSnapshot(f, st, seq); err != nil {
		f.Close()
		return "", 0, err
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		f.Close()
		return "", 0, fmt.Errorf("journal: size snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", 0, fmt.Errorf("journal: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", 0, fmt.Errorf("journal: close snapshot: %w", err)
	}
	path := filepath.Join(dir, snapshotName(seq))
	if err := os.Rename(tmp, path); err != nil {
		return "", 0, fmt.Errorf("journal: publish snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", 0, err
	}
	return path, size, nil
}

// encodeSnapshot streams st to w in the snapshot format, a buffer's worth
// at a time: the snapshot is never held in memory whole. Task lines go
// through the record codec into one reused line buffer; the header and the
// trailer, written once, stay with encoding/json.
func encodeSnapshot(w io.Writer, st *State, seq uint64) error {
	ids := make([]string, 0, len(st.Tasks))
	for id := range st.Tasks {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	bw := bufio.NewWriterSize(w, 64<<10)
	line, err := json.Marshal(snapshotHeader{
		V:       snapshotVersion,
		Seq:     seq,
		Tasks:   len(ids),
		Workers: st.Profiles.Size(),
		Stats:   st.Stats.Counts(),
	})
	if err == nil {
		line = append(line, '\n')
		_, err = bw.Write(line)
	}
	if err != nil {
		return fmt.Errorf("journal: encode snapshot header: %w", err)
	}
	for _, id := range ids {
		rec := st.Tasks[id]
		if line, err = appendTaskRecord(line[:0], &rec); err == nil {
			line = append(line, '\n')
			_, err = bw.Write(line)
		}
		if err != nil {
			return fmt.Errorf("journal: encode snapshot task %q: %w", id, err)
		}
	}
	if err := st.Profiles.WriteSnapshot(bw); err != nil {
		return err
	}
	if _, err := bw.WriteString(snapshotTrailer); err != nil {
		return fmt.Errorf("journal: encode snapshot trailer: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("journal: write snapshot: %w", err)
	}
	return nil
}

// readSnapshot loads a snapshot file, returning the rebuilt state and the
// sequence boundary it covers. Any shortfall — wrong version, missing
// lines, malformed records, absent trailer — is an error: a snapshot is
// all-or-nothing.
func readSnapshot(path string) (*State, uint64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: read snapshot: %w", err)
	}
	name := filepath.Base(path)
	lines := bytes.Count(raw, []byte("\n"))
	if len(raw) > 0 && raw[len(raw)-1] != '\n' {
		lines++ // an unterminated last line still counts
	}
	if lines < 2 {
		return nil, 0, fmt.Errorf("journal: snapshot %s truncated", name)
	}
	// next cuts the following line off rest; the line count above bounds
	// the calls below.
	rest := raw
	next := func() (line []byte) {
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		return line
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(next(), &hdr); err != nil {
		return nil, 0, fmt.Errorf("journal: snapshot %s header: %w", name, err)
	}
	if hdr.V != snapshotVersion {
		return nil, 0, fmt.Errorf("journal: snapshot %s has version %d, want %d", name, hdr.V, snapshotVersion)
	}
	if want := 1 + hdr.Tasks + hdr.Workers + 1; lines != want {
		return nil, 0, fmt.Errorf("journal: snapshot %s has %d lines, header promises %d — truncated or damaged",
			name, lines, want)
	}

	st := NewState()
	st.Stats.Seed(hdr.Stats, 0) // the replay ledger's pool gauge is never read
	for i := 0; i < hdr.Tasks; i++ {
		var rec taskq.Record
		if err := decodeTaskRecord(next(), &rec); err != nil {
			return nil, 0, fmt.Errorf("journal: snapshot %s task line %d: %w", name, i+1, err)
		}
		if rec.Task.ID == "" {
			return nil, 0, fmt.Errorf("journal: snapshot %s task line %d has no id", name, i+1)
		}
		if _, dup := st.Tasks[rec.Task.ID]; dup {
			return nil, 0, fmt.Errorf("journal: snapshot %s repeats task %q", name, rec.Task.ID)
		}
		st.Tasks[rec.Task.ID] = rec
	}
	// What is left is the worker lines and the trailer, the last line.
	workerLines := rest
	for i := 0; i < hdr.Workers; i++ {
		next()
	}
	workerLines = workerLines[:len(workerLines)-len(rest)]
	var tr struct {
		EOF bool `json:"eof"`
	}
	if err := json.Unmarshal(next(), &tr); err != nil || !tr.EOF {
		return nil, 0, fmt.Errorf("journal: snapshot %s missing eof trailer — truncated", name)
	}
	restored, err := st.Profiles.ReadSnapshot(bytes.NewReader(workerLines))
	if err != nil {
		return nil, 0, fmt.Errorf("journal: snapshot %s: %w", name, err)
	}
	if restored != hdr.Workers {
		return nil, 0, fmt.Errorf("journal: snapshot %s restored %d workers, header promises %d",
			name, restored, hdr.Workers)
	}
	return st, hdr.Seq, nil
}

// syncDir fsyncs a directory so renames and unlinks within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: open dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: fsync dir: %w", err)
	}
	return nil
}
