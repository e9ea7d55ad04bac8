package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// DefaultSnapshotEvery is the compaction cadence when File is opened with
// snapshotEvery <= 0: after this many appended records the log is
// rewritten as one snapshot, bounding replay length and file size.
const DefaultSnapshotEvery = 256

// File is the durable on-disk WAL. Append is group-committed: every
// append is durable (fsynced) before it returns, but concurrent appenders
// share one fsync — the classic group-commit batch — so sustained load
// pays one disk flush per batch, not per record.
//
// File implements the core Recorder interface, stamping records with
// wall-clock unix nanoseconds.
type File struct {
	mu            sync.Mutex // serialises writes, state and compaction
	f             *os.File
	path          string
	buf           []byte // reusable encode buffer, guarded by mu
	state         State
	sinceSnapshot int
	snapshotEvery int
	writeSeq      uint64 // records written (not necessarily synced)
	compactions   uint64 // times compaction replaced f

	sm        sync.Mutex // group-commit sync state
	syncCond  *sync.Cond
	syncing   bool
	syncedSeq uint64
	syncErr   error
}

// Open opens (or creates) the WAL at path and replays it. A truncated
// final record — a crash mid-append — is discarded; the file is truncated
// back to the last complete record so the next append extends a clean
// tail.
func Open(path string, snapshotEvery int) (*File, error) {
	if snapshotEvery <= 0 {
		snapshotEvery = DefaultSnapshotEvery
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	recs, clean, err := DecodeAll(data)
	if err != nil {
		return nil, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	st, err := Replay(recs)
	if err != nil {
		return nil, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	st.dropConcluded()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	// A truncated tail is physically dropped before appends resume.
	if clean < len(data) {
		if err := f.Truncate(int64(clean)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	w := &File{
		f:             f,
		path:          path,
		state:         st,
		sinceSnapshot: len(recs),
		snapshotEvery: snapshotEvery,
	}
	w.syncCond = sync.NewCond(&w.sm)
	return w, nil
}

// State returns a copy of the live state: the actions with no outcome
// and the instances not done. A File forgets what concluded, in Append
// and in Open, so its state and its snapshots stay O(in-flight).
func (w *File) State() State {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state.Clone()
}

// Append writes one record and returns once it is durable. The record is
// stamped with the current wall clock if Wall is zero.
func (w *File) Append(r Record) error {
	if r.Wall == 0 {
		r.Wall = time.Now().UnixNano()
	}
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return fmt.Errorf("wal: %s: log closed", w.path)
	}
	w.buf = AppendFrame(w.buf[:0], r)
	if _, err := w.f.Write(w.buf); err != nil {
		w.mu.Unlock()
		return fmt.Errorf("wal: append %s: %w", w.path, err)
	}
	w.writeSeq++
	seq := w.writeSeq
	switch r.Kind {
	case KindOutcome:
		delete(w.state.Actions, ActionKey{Thread: r.Thread, Action: r.Action})
	case KindInstanceDone:
		delete(w.state.Instances, r.Tag)
	default:
		w.state.Apply(r)
	}
	w.sinceSnapshot++
	if w.sinceSnapshot >= w.snapshotEvery {
		if err := w.compactLocked(); err != nil {
			w.mu.Unlock()
			return err
		}
		// Compaction fsynced and renamed; everything written so far is
		// durable already.
		w.bumpSynced(seq)
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	return w.sync(seq)
}

// sync blocks until record seq is durable, sharing fsyncs between
// concurrent appenders: one goroutine flushes on behalf of every write
// that landed before the flush started.
func (w *File) sync(seq uint64) error {
	w.sm.Lock()
	for {
		if w.syncedSeq >= seq {
			err := w.syncErr
			w.sm.Unlock()
			return err
		}
		if !w.syncing {
			break
		}
		w.syncCond.Wait()
	}
	w.syncing = true
	w.sm.Unlock()

	// Capture how far writes have progressed, then flush: the fsync
	// covers every record written before it.
	w.mu.Lock()
	target := w.writeSeq
	f, gen := w.f, w.compactions
	w.mu.Unlock()
	var err error
	if f != nil {
		err = f.Sync()
	}
	if err != nil {
		w.mu.Lock()
		if w.compactions != gen {
			// A compaction closed f under the fsync. Its snapshot was
			// fsynced after every record up to target was written, so
			// those records are durable already.
			err = nil
		}
		w.mu.Unlock()
	}

	w.sm.Lock()
	w.syncing = false
	if target > w.syncedSeq {
		w.syncedSeq = target
	}
	w.syncErr = err
	w.syncCond.Broadcast()
	w.sm.Unlock()
	if err != nil {
		return fmt.Errorf("wal: fsync %s: %w", w.path, err)
	}
	return nil
}

// bumpSynced marks records up to seq durable without an fsync (used after
// compaction, which is durable by construction).
func (w *File) bumpSynced(seq uint64) {
	w.sm.Lock()
	if seq > w.syncedSeq {
		w.syncedSeq = seq
	}
	w.syncCond.Broadcast()
	w.sm.Unlock()
}

// compactLocked rewrites the log as a single snapshot record: write a
// temp file, fsync it, rename it over the log, fsync the directory so the
// rename survives a power cut. Caller holds w.mu.
func (w *File) compactLocked() error {
	blob := EncodeState(w.state)
	frame := AppendFrame(nil, Record{
		Kind: KindSnapshot,
		Wall: time.Now().UnixNano(),
		Blob: blob,
	})
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(w.path)+".snap-*")
	if err != nil {
		return fmt.Errorf("wal: compact %s: %w", w.path, err)
	}
	if _, err = tmp.Write(frame); err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), w.path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: compact %s: %w", w.path, err)
	}
	// The renamed temp file is the log now; appends continue at its end.
	w.f.Close()
	w.f = tmp
	w.compactions++
	w.sinceSnapshot = 1 // the snapshot record itself
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("wal: compact %s: %w", w.path, err)
	}
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close flushes and closes the log.
func (w *File) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// Recorder methods: protocol state recorded by the core runtime before
// the corresponding message leaves the node. Every append error here is
// swallowed — the Recorder interface has no error return — so the
// durability contract holds only for appends that succeed.

// RecordJoin logs an entry-barrier join.
func (w *File) RecordJoin(thread, action, role string) {
	_ = w.Append(Record{Kind: KindJoin, Thread: thread, Action: action, Role: role})
}

// RecordRaise logs an exception raised into a resolution round.
func (w *File) RecordRaise(thread, action string, round int, exc string) {
	_ = w.Append(Record{Kind: KindRaise, Thread: thread, Action: action, Round: round, Exc: exc})
}

// RecordVote logs an exit vote.
func (w *File) RecordVote(thread, action string, round int, exc string) {
	_ = w.Append(Record{Kind: KindVote, Thread: thread, Action: action, Round: round, Exc: exc})
}

// RecordOutcome logs an action's final local outcome.
func (w *File) RecordOutcome(thread, action, outcome string) {
	_ = w.Append(Record{Kind: KindOutcome, Thread: thread, Action: action, Outcome: outcome})
}

// AppendInstanceStart logs a tagged cluster instance starting locally.
func (w *File) AppendInstanceStart(tag, kind string, roles int) error {
	return w.Append(Record{Kind: KindInstanceStart, Tag: tag, WorkKind: kind, Roles: roles})
}

// AppendInstanceDone logs a tagged cluster instance finishing locally.
func (w *File) AppendInstanceDone(tag string) error {
	return w.Append(Record{Kind: KindInstanceDone, Tag: tag})
}
