package wal

import (
	"sync"
	"time"
)

// NowClock is the slice of vclock.Clock that Memory needs: a timestamp
// source. Chaos passes its scenario's virtual clock.
type NowClock interface {
	Now() time.Duration
}

// Memory is the in-memory WAL the chaos engine installs for
// kill-and-restart scenarios: same record stream as File, stamped with
// the scenario's virtual clock instead of the wall clock, so replay
// decisions — and therefore the golden recovery traces — are
// byte-deterministic.
type Memory struct {
	clk NowClock

	mu   sync.Mutex
	recs []Record
}

// NewMemory returns an empty in-memory WAL stamping records from clk.
func NewMemory(clk NowClock) *Memory {
	return &Memory{clk: clk}
}

func (m *Memory) append(r Record) {
	r.Wall = int64(m.clk.Now())
	m.mu.Lock()
	m.recs = append(m.recs, r)
	m.mu.Unlock()
}

// RecordJoin logs an entry-barrier join.
func (m *Memory) RecordJoin(thread, action, role string) {
	m.append(Record{Kind: KindJoin, Thread: thread, Action: action, Role: role})
}

// RecordRaise logs an exception raised into a resolution round.
func (m *Memory) RecordRaise(thread, action string, round int, exc string) {
	m.append(Record{Kind: KindRaise, Thread: thread, Action: action, Round: round, Exc: exc})
}

// RecordVote logs an exit vote when called directly; the core runtime
// no longer calls it, since no recovery rule reads a vote.
func (m *Memory) RecordVote(thread, action string, round int, exc string) {
	m.append(Record{Kind: KindVote, Thread: thread, Action: action, Round: round, Exc: exc})
}

// RecordOutcome logs an action's final local outcome.
func (m *Memory) RecordOutcome(thread, action, outcome string) {
	m.append(Record{Kind: KindOutcome, Thread: thread, Action: action, Outcome: outcome})
}

// Records returns a copy of the log.
func (m *Memory) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Record(nil), m.recs...)
}

// State replays the log into a materialised state — what a reborn thread
// recovers from after a crash.
func (m *Memory) State() State {
	m.mu.Lock()
	recs := append([]Record(nil), m.recs...)
	m.mu.Unlock()
	st, _ := Replay(recs) // no snapshots in memory logs; Replay cannot fail
	return st
}
