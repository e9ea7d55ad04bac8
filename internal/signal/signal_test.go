package signal

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/simenv"
	"caaction/internal/trace"
	"caaction/internal/transport"
)

type sigResult struct {
	decisions map[string]Decision
	undos     map[string]int
	metrics   *trace.Metrics
}

// runSignalling simulates one signalling exchange: votes maps thread to its
// own ε; undoFails lists threads whose undo operations fail; corrupt lists
// sender threads whose votes are corrupted in transit.
func runSignalling(t testing.TB, votes map[string]except.ID, undoFails map[string]bool,
	corrupt map[string]bool) sigResult {
	t.Helper()

	env := simenv.New(simenv.Latency(time.Millisecond))
	if len(corrupt) > 0 {
		env.Net.SetFault(func(from, to string, msg protocol.Message) transport.Fault {
			if msg.Kind == protocol.KindToBeSignalled && msg.Phase == 1 && corrupt[from] {
				return transport.Corrupt
			}
			return transport.Deliver
		})
	}

	var peers []string
	for id := range votes {
		peers = append(peers, id)
	}
	sortStrings(peers)

	var mu sync.Mutex
	decisions := make(map[string]Decision)
	undos := make(map[string]int)

	err := env.Peers(peers, func(i int, ep transport.Endpoint) {
		self := peers[i]
		inst := New(Config{
			Action: "A#1",
			Self:   self,
			Peers:  peers,
			Round:  0,
			Send: func(to string, msg protocol.Message) {
				if err := ep.Send(to, msg); err != nil {
					t.Errorf("%s: %v", self, err)
				}
			},
			Undo: func() error {
				mu.Lock()
				undos[self]++
				mu.Unlock()
				if undoFails[self] {
					return fmt.Errorf("undo failed at %s", self)
				}
				return nil
			},
		})
		dec := inst.Start(votes[self])
		for !dec.Done {
			d, ok := ep.Recv()
			if !ok {
				t.Errorf("%s: endpoint closed", self)
				return
			}
			if d.Corrupt {
				dec = inst.MarkFailed(d.From)
				continue
			}
			var err error
			dec, err = inst.Deliver(d.From, &d.Msg)
			if err != nil {
				t.Errorf("%s: %v", self, err)
				return
			}
		}
		mu.Lock()
		decisions[self] = dec
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return sigResult{decisions: decisions, undos: undos, metrics: env.Metrics}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestCase1EachSignalsOwn(t *testing.T) {
	votes := map[string]except.ID{
		"T1": "L_PLATE",
		"T2": except.None,
		"T3": "NCS_FAIL",
	}
	res := runSignalling(t, votes, nil, nil)
	for id, want := range votes {
		if got := res.decisions[id].Signal; got != want {
			t.Errorf("%s signals %q, want %q", id, got, want)
		}
	}
	// Simple case: N(N−1) messages.
	if got := res.metrics.Get("msg.total"); got != 6 {
		t.Fatalf("messages = %d, want 6", got)
	}
	if len(res.undos) != 0 {
		t.Fatal("no undo expected")
	}
}

func TestCase3FailureDominates(t *testing.T) {
	votes := map[string]except.ID{
		"T1": "eps1",
		"T2": except.Failure,
		"T3": except.None,
	}
	res := runSignalling(t, votes, nil, nil)
	for id := range votes {
		if got := res.decisions[id].Signal; got != except.Failure {
			t.Errorf("%s signals %q, want ƒ", id, got)
		}
	}
	if got := res.metrics.Get("msg.total"); got != 6 {
		t.Fatalf("messages = %d, want 6 (single round)", got)
	}
}

func TestCase2UndoSucceeds(t *testing.T) {
	votes := map[string]except.ID{
		"T1": except.Undo,
		"T2": except.None,
		"T3": "eps",
	}
	res := runSignalling(t, votes, nil, nil)
	for id := range votes {
		dec := res.decisions[id]
		if dec.Signal != except.Undo {
			t.Errorf("%s signals %q, want µ", id, dec.Signal)
		}
		if !dec.UndoDone {
			t.Errorf("%s did not run undo", id)
		}
		if res.undos[id] != 1 {
			t.Errorf("%s undo ran %d times", id, res.undos[id])
		}
	}
	// Undo case: two rounds, 2N(N−1) messages — the paper's worst case.
	if got := res.metrics.Get("msg.total"); got != 12 {
		t.Fatalf("messages = %d, want 12", got)
	}
}

func TestCase2UndoFailureEscalatesToF(t *testing.T) {
	votes := map[string]except.ID{
		"T1": except.Undo,
		"T2": except.None,
		"T3": except.None,
	}
	res := runSignalling(t, votes, map[string]bool{"T2": true}, nil)
	for id := range votes {
		if got := res.decisions[id].Signal; got != except.Failure {
			t.Errorf("%s signals %q, want ƒ after failed undo", id, got)
		}
	}
	// Everyone still ran undo exactly once; no third round happens.
	for id := range votes {
		if res.undos[id] != 1 {
			t.Errorf("%s undo ran %d times", id, res.undos[id])
		}
	}
	if got := res.metrics.Get("msg.total"); got != 12 {
		t.Fatalf("messages = %d, want 12", got)
	}
}

func TestCorruptVoteTreatedAsFailure(t *testing.T) {
	votes := map[string]except.ID{
		"T1": "eps1",
		"T2": except.None,
		"T3": except.None,
	}
	res := runSignalling(t, votes, nil, map[string]bool{"T1": true})
	// T2 and T3 see T1's corrupted vote as ƒ and signal ƒ; T1 received
	// clean votes and (case 1) signals its own — the paper's extension
	// guarantees coordination among fault-free nodes only.
	if res.decisions["T2"].Signal != except.Failure {
		t.Errorf("T2 signals %q", res.decisions["T2"].Signal)
	}
	if res.decisions["T3"].Signal != except.Failure {
		t.Errorf("T3 signals %q", res.decisions["T3"].Signal)
	}
}

func TestDeliverValidation(t *testing.T) {
	inst := New(Config{
		Action: "A#1", Self: "T1", Peers: []string{"T1", "T2"}, Round: 3,
		Send: func(string, protocol.Message) {},
		Undo: func() error { return nil },
	})
	// A message of another type cannot reach Deliver: it takes the vote
	// type itself.
	if _, err := inst.Deliver("T2", &protocol.Message{Kind: protocol.KindToBeSignalled, Action: "other", Round: 3, Phase: 1}); !errors.Is(err, ErrWrongAction) {
		t.Fatalf("wrong action: err = %v", err)
	}
	if _, err := inst.Deliver("T2", &protocol.Message{Kind: protocol.KindToBeSignalled, Action: "A#1", Round: 2, Phase: 1}); !errors.Is(err, ErrWrongRound) {
		t.Fatalf("wrong round: err = %v", err)
	}
	if _, err := inst.Deliver("T2", &protocol.Message{Kind: protocol.KindToBeSignalled, Action: "A#1", Round: 3, Phase: 7}); !errors.Is(err, ErrUnexpected) {
		t.Fatalf("bad phase: err = %v", err)
	}
}

func TestAgreementProperty(t *testing.T) {
	// For any vote mix without faults: if any ƒ → all ƒ; else if any µ →
	// all µ; else each signals its own.
	options := []except.ID{except.None, "eps1", "eps2", except.Undo, except.Failure}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		votes := make(map[string]except.ID, n)
		hasU, hasF := false, false
		for i := 1; i <= n; i++ {
			v := options[rng.Intn(len(options))]
			votes[fmt.Sprintf("T%d", i)] = v
			hasU = hasU || v == except.Undo
			hasF = hasF || v == except.Failure
		}
		res := runSignalling(t, votes, nil, nil)
		if len(res.decisions) != n {
			return false
		}
		for id, dec := range res.decisions {
			switch {
			case hasF:
				if dec.Signal != except.Failure {
					return false
				}
			case hasU:
				if dec.Signal != except.Undo || res.undos[id] != 1 {
					return false
				}
			default:
				if dec.Signal != votes[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
