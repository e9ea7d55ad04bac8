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
// rewritten as one snapshot, bounding replay length and file size. At
// 4096 a full tail is 120–170 KB of protocol records and replays in a few
// milliseconds at boot; compaction, which fsyncs a temp file and the
// directory under the append lock, runs once per 4096 records.
const DefaultSnapshotEvery = 4096

// File is the durable on-disk WAL. Append is group-committed: every
// append is durable (written and fsynced) before it returns, but
// concurrent appenders share one write and one fsync — the classic
// group-commit batch — so sustained load pays one system call pair per
// batch, not per record.
//
// Append encodes its record into a pending batch under the append lock.
// One appender at a time leads a flush: it takes the pending batch, and
// outside the lock writes it with one write(2), fsyncs, and wakes every
// appender whose record the batch carried. Only one leader runs at a
// time, so batches reach the file in append order.
//
// File implements the core Recorder interface, stamping records with
// wall-clock unix nanoseconds.
type File struct {
	mu            sync.Mutex // serialises encoding, state and compaction
	f             *os.File
	path          string
	pending       []byte // frames encoded but not yet written, guarded by mu
	spare         []byte // the last leader's batch buffer, reused by the next
	state         State
	sinceSnapshot int
	snapshotEvery int
	seq           uint64 // records appended (encoded, not necessarily written)
	compactions   uint64 // times compaction replaced f

	sm        sync.Mutex // group-commit flush state
	syncCond  *sync.Cond
	syncing   bool // a leader (or Close) is flushing
	syncedSeq uint64
	syncErr   error
	fsyncs    uint64 // flushes and compactions, for records per fsync
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

// Append logs one record and returns once it is durable. The record is
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
	w.pending = AppendFrame(w.pending, r)
	w.seq++
	seq := w.seq
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
		// The snapshot holds every record applied so far and is
		// fsynced and renamed; they are all durable already.
		w.bumpSynced(seq)
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	return w.sync(seq)
}

// sync blocks until record seq is durable. The first appender to find no
// flush running leads one on behalf of every record encoded before it
// takes the pending batch; the others wait for a flush that covers them.
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

	// Take the batch and how far it reaches, then write and fsync it
	// outside the append lock so appenders keep encoding the next one.
	w.mu.Lock()
	target := w.seq
	batch := w.pending
	w.pending, w.spare = w.spare[:0], batch
	f, gen := w.f, w.compactions
	w.mu.Unlock()
	err := writeSync(f, batch)
	if err != nil {
		w.mu.Lock()
		// A compaction that closed f under the flush covers it: its
		// snapshot holds every record up to target and was fsynced.
		covered := w.compactions != gen
		w.mu.Unlock()
		if covered {
			err = nil
		} else {
			err = fmt.Errorf("wal: flush %s: %w", w.path, err)
		}
	}
	return w.flushed(target, err)
}

// writeSync writes batch to f with one write(2), then fsyncs f.
func writeSync(f *os.File, batch []byte) error {
	if len(batch) > 0 {
		if _, err := f.Write(batch); err != nil {
			return err
		}
	}
	return f.Sync()
}

// flushed ends a flush: records up to seq are settled, every appender
// waiting on them wakes, and it returns what they return. A flush error
// sticks until the next compaction: a failed write may leave a torn batch
// that later batches land behind, and a failed fsync may have dropped
// pages a later one will not report, so no later flush proves its records
// replayable. The compaction's snapshot does.
func (w *File) flushed(seq uint64, err error) error {
	w.sm.Lock()
	defer w.sm.Unlock()
	w.syncing = false
	w.fsyncs++
	if seq > w.syncedSeq {
		w.syncedSeq = seq
	}
	if err != nil {
		w.syncErr = err
	}
	w.syncCond.Broadcast()
	return w.syncErr
}

// bumpSynced marks records up to seq durable without a flush (used after
// compaction, which is durable by construction).
func (w *File) bumpSynced(seq uint64) {
	w.sm.Lock()
	w.fsyncs++
	if seq > w.syncedSeq {
		w.syncedSeq = seq
	}
	w.syncErr = nil
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
	// The snapshot holds the pending records, so they are not written.
	w.f.Close()
	w.f = tmp
	w.pending = w.pending[:0]
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

// Close writes and fsyncs the pending batch, then closes the log. It
// waits for a running flush and settles every appender still waiting:
// each returns nil with its record durable, or the error Close returns.
func (w *File) Close() error {
	w.sm.Lock()
	for w.syncing {
		w.syncCond.Wait()
	}
	w.syncing = true
	w.sm.Unlock()

	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		w.sm.Lock()
		w.syncing = false
		w.syncCond.Broadcast()
		w.sm.Unlock()
		return nil
	}
	err := writeSync(w.f, w.pending)
	w.pending = w.pending[:0]
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	seq := w.seq
	w.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("wal: close %s: %w", w.path, err)
	}
	return w.flushed(seq, err)
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

// RecordVote logs an exit vote when called directly; the core runtime
// no longer calls it, since no recovery rule reads a vote.
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
