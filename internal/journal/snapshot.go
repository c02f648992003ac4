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
	"strconv"

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
//
// Both directions stream. One reader (snapReader) serves recovery, which
// decodes every task line, and compaction, which reads a task line's id
// and nothing more unless replay touched the task. One writer
// (encodeSnapshot) merges the task lines of a base snapshot, in id order,
// with the tasks a State holds: a compaction's base is the previous
// snapshot, and recovery writes its full State with none.

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

// snapshotBufBytes is the buffer each side of a snapshot streams through.
const snapshotBufBytes = 64 << 10

// writeSnapshot persists the snapshot covering sequence numbers 1..seq —
// st's tasks merged over the snapshot file at base, or st alone when base
// is "" — and returns the final path and the file's size.
func writeSnapshot(dir string, st *State, seq uint64, base string) (string, int64, error) {
	tmp := filepath.Join(dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", 0, fmt.Errorf("journal: create snapshot: %w", err)
	}
	size, err := encodeSnapshotFile(f, st, seq, base)
	if err == nil {
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("journal: fsync snapshot: %w", err)
		}
	}
	if err != nil {
		f.Close()
		return "", 0, err
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

// encodeSnapshotFile writes the snapshot into f and returns its size. The
// header comes first but counts the task lines, which over a base are known
// only once the merge has run: it claims an estimate and is patched in place
// with the count. Only a count with another number of digits than the
// estimate changes the header's length; then the file is written again,
// under the count now known.
func encodeSnapshotFile(f *os.File, st *State, seq uint64, base string) (int64, error) {
	claim := -1
	if base == "" {
		claim = len(st.Tasks)
	}
	for {
		var r *snapReader
		if base != "" {
			var err error
			if r, err = openSnapshot(base); err != nil {
				return 0, err
			}
			if claim < 0 {
				claim = max(0, r.hdr.Tasks+len(st.Tasks)-len(st.marks))
			}
		}
		got, err := encodeSnapshot(f, st, seq, r, claim)
		if r != nil {
			r.Close() // only read
		}
		if err != nil {
			return 0, err
		}
		if got == claim {
			break
		}
		if len(strconv.Itoa(got)) == len(strconv.Itoa(claim)) {
			line, err := headerLine(st, seq, got)
			if err == nil {
				_, err = f.WriteAt(line, 0)
			}
			if err != nil {
				return 0, fmt.Errorf("journal: patch snapshot header: %w", err)
			}
			break
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return 0, fmt.Errorf("journal: rewind snapshot: %w", err)
		}
		if err := f.Truncate(0); err != nil {
			return 0, fmt.Errorf("journal: truncate snapshot: %w", err)
		}
		claim = got
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, fmt.Errorf("journal: size snapshot: %w", err)
	}
	return size, nil
}

// headerLine encodes the header of st's snapshot at seq holding tasks task
// lines, newline included.
func headerLine(st *State, seq uint64, tasks int) ([]byte, error) {
	line, err := json.Marshal(snapshotHeader{
		V:       snapshotVersion,
		Seq:     seq,
		Tasks:   tasks,
		Workers: st.Profiles.Size(),
		Stats:   st.Stats.Counts(),
	})
	if err != nil {
		return nil, fmt.Errorf("journal: encode snapshot header: %w", err)
	}
	return append(line, '\n'), nil
}

// encodeSnapshot streams the snapshot at seq to w, a buffer's worth at a
// time, with a header claiming tasks task lines, and returns how many it
// wrote. Those are the task lines of the snapshot base reads (if base is
// not nil) merged in id order with st's tasks (see mergeTasks); then come
// st's worker profiles and the trailer.
func encodeSnapshot(w io.Writer, st *State, seq uint64, base *snapReader, tasks int) (int, error) {
	line, err := headerLine(st, seq, tasks)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(w, snapshotBufBytes)
	bw.Write(line) // a write error sticks to bw, and Flush reports it
	n, err := mergeTasks(bw, st, base)
	if err != nil {
		return 0, err
	}
	if err := st.Profiles.WriteSnapshot(bw); err != nil {
		return 0, err
	}
	bw.WriteString(snapshotTrailer)
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("journal: write snapshot: %w", err)
	}
	return n, nil
}

// mergeTasks writes the task lines of the new snapshot to bw in id order
// and returns how many it wrote. st's tasks are encoded once each; they
// replace the base's line for the same id. A base line st holds no task for
// is copied byte for byte, unless replay forgot the task (the line is
// dropped) or graded it (the line is decoded, marked Graded and re-encoded).
// With no base (r nil), st's tasks are the snapshot's. Copying a base line
// writes what a full replay would: the record codec reads and re-encodes a
// line to the same bytes.
func mergeTasks(bw *bufio.Writer, st *State, r *snapReader) (int, error) {
	ids := make([]string, 0, len(st.Tasks))
	for id := range st.Tasks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var (
		n    int
		line []byte
	)
	put := func(rec *taskq.Record) error {
		var err error
		if line, err = appendTaskRecord(line[:0], rec); err != nil {
			return fmt.Errorf("journal: encode snapshot task %q: %w", rec.Task.ID, err)
		}
		n++
		bw.Write(append(line, '\n'))
		return nil
	}
	// next advances the base: id and raw are its current line, and more
	// reports whether there is one.
	var (
		id, raw []byte
		more    bool
	)
	next := func() (err error) {
		if r != nil {
			id, raw, more, err = r.nextTask()
		}
		return err
	}
	if err := next(); err != nil {
		return 0, err
	}
	for more || len(ids) > 0 {
		if len(ids) > 0 && (!more || ids[0] <= string(id)) {
			replaced := more && ids[0] == string(id)
			rec := st.Tasks[ids[0]]
			ids = ids[1:]
			if err := put(&rec); err != nil {
				return 0, err
			}
			if !replaced {
				continue
			}
		} else if graded, marked := st.marks[string(id)]; !marked {
			n++
			bw.Write(raw)
			bw.WriteByte('\n')
		} else if graded {
			var rec taskq.Record
			if err := decodeTaskRecord(raw, &rec); err != nil {
				return 0, fmt.Errorf("journal: snapshot %s task %q: %w", r.name, id, err)
			}
			rec.Graded = true
			if err := put(&rec); err != nil {
				return 0, err
			}
		}
		if err := next(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// readSnapshot loads a snapshot file whole, returning the rebuilt state and
// the sequence boundary it covers. Any shortfall — wrong version, missing
// lines, malformed or out-of-order records, absent trailer — is an error: a
// snapshot is all-or-nothing.
func readSnapshot(path string) (*State, uint64, error) { return loadSnapshot(path, true) }

// readBase loads the part of a snapshot file compaction keeps in memory —
// the counters and the worker profiles — and only steps over the task
// lines, which stay on disk: the state it returns stands over the file
// (State.overBase), as the base the next compaction merges onto.
func readBase(path string) (*State, uint64, error) { return loadSnapshot(path, false) }

func loadSnapshot(path string, tasks bool) (*State, uint64, error) {
	r, err := openSnapshot(path)
	if err != nil {
		return nil, 0, err
	}
	defer r.Close()
	st := NewState()
	if !tasks {
		st.overBase()
	}
	st.Stats.Seed(r.hdr.Stats, 0) // the replay ledger's pool gauge is never read
	for {
		_, line, more, err := r.nextTask()
		if err != nil {
			return nil, 0, err
		}
		if !more {
			break
		}
		if !tasks {
			continue
		}
		var rec taskq.Record
		if err := decodeTaskRecord(line, &rec); err != nil {
			return nil, 0, fmt.Errorf("journal: snapshot %s task line %d: %w", r.name, r.hdr.Tasks-r.left, err)
		}
		st.Tasks[rec.Task.ID] = rec
	}
	// What is left is the worker lines and the trailer, which ends the file.
	var workers bytes.Buffer
	for i := 0; i < r.hdr.Workers; i++ {
		line, err := r.line()
		if err != nil {
			return nil, 0, err
		}
		workers.Write(line)
		workers.WriteByte('\n')
	}
	var tr struct {
		EOF bool `json:"eof"`
	}
	line, err := r.line()
	if err != nil || json.Unmarshal(line, &tr) != nil || !tr.EOF {
		return nil, 0, fmt.Errorf("journal: snapshot %s missing eof trailer — truncated", r.name)
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return nil, 0, fmt.Errorf("journal: snapshot %s has more lines than its header promises", r.name)
	}
	restored, err := st.Profiles.ReadSnapshot(&workers)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: snapshot %s: %w", r.name, err)
	}
	if restored != r.hdr.Workers {
		return nil, 0, fmt.Errorf("journal: snapshot %s restored %d workers, header promises %d",
			r.name, restored, r.hdr.Workers)
	}
	return st, r.hdr.Seq, nil
}

// snapReader streams a snapshot file a line at a time through a bounded
// buffer: the header on open, then the task lines in id order (nextTask),
// then the worker lines and the trailer (line).
type snapReader struct {
	f    *os.File
	br   *bufio.Reader
	name string
	hdr  snapshotHeader
	left int    // task lines not yet read
	prev []byte // the last task id read
	long []byte // a line longer than br's buffer, reassembled
	id   []byte // the id of a line decoded whole
}

// openSnapshot opens the snapshot at path and reads its header.
func openSnapshot(path string) (*snapReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: read snapshot: %w", err)
	}
	r := &snapReader{f: f, br: bufio.NewReaderSize(f, snapshotBufBytes), name: filepath.Base(path)}
	line, err := r.line()
	if err == nil {
		if err = json.Unmarshal(line, &r.hdr); err != nil {
			err = fmt.Errorf("journal: snapshot %s header: %w", r.name, err)
		}
	}
	if err == nil && r.hdr.V != snapshotVersion {
		err = fmt.Errorf("journal: snapshot %s has version %d, want %d", r.name, r.hdr.V, snapshotVersion)
	}
	if err == nil && (r.hdr.Tasks < 0 || r.hdr.Workers < 0) {
		err = fmt.Errorf("journal: snapshot %s header promises %d tasks and %d workers", r.name, r.hdr.Tasks, r.hdr.Workers)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	r.left = r.hdr.Tasks
	return r, nil
}

func (r *snapReader) Close() error { return r.f.Close() }

// line returns the next line less its newline, valid until the next call.
// An unterminated last line still counts; past it the file is truncated.
func (r *snapReader) line() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	switch {
	case err == nil:
		return line[:len(line)-1], nil
	case err == io.EOF && len(line) > 0:
		return line, nil
	case err == io.EOF:
		return nil, fmt.Errorf("journal: snapshot %s truncated: fewer lines than its header promises", r.name)
	default:
		return nil, fmt.Errorf("journal: read snapshot %s: %w", r.name, err)
	}
}

// nextTask reads the next task line and its id, both valid until the next
// call; more is false once the header's count has been read. Ids must
// increase strictly in sort.Strings order, compared unescaped: the writer
// sorts them so, and the merge relies on it, so a file that breaks the
// order (or repeats an id) is ErrCorrupt.
func (r *snapReader) nextTask() (id, line []byte, more bool, err error) {
	if r.left == 0 {
		return nil, nil, false, nil
	}
	r.left--
	if line, err = r.line(); err != nil {
		return nil, nil, false, err
	}
	n := r.hdr.Tasks - r.left
	if id, err = r.lineID(line); err != nil {
		return nil, nil, false, fmt.Errorf("journal: snapshot %s task line %d: %w", r.name, n, err)
	}
	if len(id) == 0 {
		return nil, nil, false, fmt.Errorf("journal: snapshot %s task line %d has no id", r.name, n)
	}
	if bytes.Compare(id, r.prev) <= 0 { // prev starts empty, below any id
		return nil, nil, false, fmt.Errorf("%w: snapshot %s task line %d has id %q, not after %q",
			ErrCorrupt, r.name, n, id, r.prev)
	}
	r.prev = append(r.prev[:0], id...)
	return id, line, true, nil
}

// canonicalTaskKey and canonicalTaskNext frame the id of a task line the
// record codec wrote: it comes first, as is.
var canonicalTaskKey, canonicalTaskNext = []byte(`{"Task":{"ID":"`), []byte(`","Location":`)

// lineID reads a task line's id without decoding the rest of a line the
// codec wrote; any other line (encoding/json's escapes) is decoded whole.
func (r *snapReader) lineID(line []byte) ([]byte, error) {
	if rest, ok := bytes.CutPrefix(line, canonicalTaskKey); ok {
		if end := bytes.IndexByte(rest, '"'); end >= 0 && plain(rest[:end]) &&
			bytes.HasPrefix(rest[end:], canonicalTaskNext) {
			return rest[:end], nil
		}
	}
	var rec taskq.Record
	if err := decodeTaskRecord(line, &rec); err != nil {
		return nil, err
	}
	r.id = append(r.id[:0], rec.Task.ID...)
	return r.id, nil
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
