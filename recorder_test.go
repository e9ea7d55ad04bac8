package caaction_test

import (
	"context"
	"sync"
	"testing"

	"caaction"
	"caaction/load"
)

// countingRecorder counts the write-ahead calls the runtime makes. At each
// RecordRaise it also reads how many Exception messages the system has
// sent, so a test can check the raise is recorded before its message
// leaves.
type countingRecorder struct {
	mu                         sync.Mutex
	metrics                    *caaction.Metrics
	joins, raises, votes, outs int
	exceptionsSentAtFirstRaise int64
}

func (r *countingRecorder) RecordJoin(thread, action, role string) {
	r.mu.Lock()
	r.joins++
	r.mu.Unlock()
}

func (r *countingRecorder) RecordRaise(thread, action string, round int, exc string) {
	r.mu.Lock()
	if r.raises == 0 {
		r.exceptionsSentAtFirstRaise = r.metrics.Get("msg.Exception")
	}
	r.raises++
	r.mu.Unlock()
}

func (r *countingRecorder) RecordVote(thread, action string, round int, exc string) {
	r.mu.Lock()
	r.votes++
	r.mu.Unlock()
}

func (r *countingRecorder) RecordOutcome(thread, action, outcome string) {
	r.mu.Lock()
	r.outs++
	r.mu.Unlock()
}

// runRecorded runs one action of spec under the virtual clock with rec
// attached and returns every role's outcome.
func runRecorded(t *testing.T, rec *countingRecorder, spec *caaction.Spec, progs map[string]caaction.RoleProgram) map[string]error {
	t.Helper()
	sys, err := caaction.New(caaction.WithVirtualTime(), caaction.WithSimTransport(0), caaction.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	rec.metrics = sys.Metrics()
	h, err := sys.StartAction(context.Background(), spec, progs)
	if err != nil {
		t.Fatal(err)
	}
	sys.Wait()
	return h.Results()
}

// TestRecorderWritesWhatRecoveryReads: a 3-role commit action records one
// join and one outcome per role and no exit vote — no recovery rule reads
// a vote, and a reborn thread that re-joins votes again.
func TestRecorderWritesWhatRecoveryReads(t *testing.T) {
	rec := &countingRecorder{}
	spec, progs := commitSpec(t)
	for role, err := range runRecorded(t, rec, spec, progs) {
		if err != nil {
			t.Fatalf("role %s: %v", role, err)
		}
	}
	if rec.joins != 3 || rec.outs != 3 || rec.votes != 0 || rec.raises != 0 {
		t.Fatalf("recorded joins=%d outcomes=%d votes=%d raises=%d, want 3, 3, 0, 0",
			rec.joins, rec.outs, rec.votes, rec.raises)
	}
}

// TestRecorderRaiseBeforeException: in a signal action the raising role
// records its raise before the first Exception message is sent, so a
// restarted thread can re-assert a raise its peers may already know of.
func TestRecorderRaiseBeforeException(t *testing.T) {
	rec := &countingRecorder{}
	spec, progs, err := load.Workload(load.KindSignal, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for role, err := range runRecorded(t, rec, spec, progs) {
		if se, ok := caaction.AsSignalled(err); !ok || se.Exc != "overload" {
			t.Fatalf("role %s: %v, want signalled overload", role, err)
		}
	}
	if rec.raises != 1 {
		t.Fatalf("recorded %d raises, want 1", rec.raises)
	}
	if rec.exceptionsSentAtFirstRaise != 0 {
		t.Fatalf("%d Exception messages sent before the raise was recorded, want 0", rec.exceptionsSentAtFirstRaise)
	}
	if rec.metrics.Get("msg.Exception") == 0 {
		t.Fatal("no Exception message sent: the check above proves nothing")
	}
	if rec.joins != 3 || rec.outs != 3 || rec.votes != 0 {
		t.Fatalf("recorded joins=%d outcomes=%d votes=%d, want 3, 3, 0", rec.joins, rec.outs, rec.votes)
	}
}
