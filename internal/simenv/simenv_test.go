package simenv

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caaction/internal/protocol"
	"caaction/internal/transport"
	"caaction/internal/vclock"
)

// TestPeersBindBeforeAnySend: every peer sends to every other at time zero,
// so a send to an endpoint not yet bound would fail.
func TestPeersBindBeforeAnySend(t *testing.T) {
	const n = 8
	env := New(Latency(time.Millisecond))
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("P%d", i)
	}
	var mu sync.Mutex
	got := make(map[string]int, n)
	err := env.Peers(names, func(i int, ep transport.Endpoint) {
		for _, to := range names {
			if to != names[i] {
				if err := ep.Send(to, protocol.Message{Kind: protocol.KindEnter, Action: "A#1", From: names[i]}); err != nil {
					t.Errorf("%s -> %s: %v", names[i], to, err)
				}
			}
		}
		for k := 0; k < n-1; k++ {
			if _, ok := ep.Recv(); !ok {
				t.Errorf("%s: endpoint closed", names[i])
				return
			}
		}
		mu.Lock()
		got[names[i]] = n - 1
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("%d of %d peers received every message", len(got), n)
	}
	if now := env.Clock.Now(); now != time.Millisecond {
		t.Fatalf("finished at %v, want one latency (1ms)", now)
	}
	if sent := env.Metrics.Get("msg.total"); sent != n*(n-1) {
		t.Fatalf("msg.total = %d, want %d", sent, n*(n-1))
	}
}

// TestNoParticipantStartsLate: every participant sleeps one millisecond
// from time zero. A clock that saw the first ones alone would advance
// before the later ones existed, and those would wake late.
func TestNoParticipantStartsLate(t *testing.T) {
	for i := 0; i < 20; i++ {
		env := New()
		var late atomic.Int32
		participants := make([]func(), 64)
		for k := range participants {
			participants[k] = func() {
				env.Clock.Sleep(time.Millisecond)
				if env.Clock.Now() != time.Millisecond {
					late.Add(1)
				}
			}
		}
		env.Go(participants...)
		if n := late.Load(); n > 0 {
			t.Fatalf("run %d: %d of %d participants woke after 1ms", i, n, len(participants))
		}
	}
}

// TestSetupErrorStartsNothing: a failed setup starts no participant and
// its error comes back.
func TestSetupErrorStartsNothing(t *testing.T) {
	env := New()
	if _, err := env.Net.Endpoint("T1"); err != nil {
		t.Fatal(err)
	}
	ran := false
	err := env.Peers([]string{"T2", "T1"}, func(int, transport.Endpoint) { ran = true })
	if err == nil || ran {
		t.Fatalf("Peers over a bound address = %v, participant ran: %v", err, ran)
	}
}

// TestStartOnRealClock: Start also drives a wall-clock system, returning
// once every participant has.
func TestStartOnRealClock(t *testing.T) {
	var done atomic.Int32
	participant := func() { done.Add(1) }
	err := Start(vclock.NewReal(), func() ([]func(), error) {
		return []func(){participant, participant, participant}, nil
	})
	if err != nil || done.Load() != 3 {
		t.Fatalf("Start = %v with %d of 3 participants done", err, done.Load())
	}
}
