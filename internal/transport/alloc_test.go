package transport

import (
	"runtime"
	"testing"
	"time"

	"caaction/internal/protocol"
	"caaction/internal/trace"
	"caaction/internal/vclock"
)

// TestSimSendZeroAllocsDisabledLog pins the hot-path contract of the
// performance overhaul: with logging disabled (nil Log) and metrics
// attached, a steady-state sim send+receive cycle performs ZERO heap
// allocations — no eager log formatting, no metric name interning, no
// delivery boxing, no queue growth.
func TestSimSendZeroAllocsDisabledLog(t *testing.T) {
	clk := vclock.NewReal()
	net := NewSim(SimConfig{Clock: clk, Metrics: &trace.Metrics{}})
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	msg := protocol.Message{Kind: protocol.KindSuspended, Action: "bench#1", From: "A", Round: 1}

	cycle := func() {
		if err := a.Send("B", msg); err != nil {
			panic(err)
		}
		if _, ok := b.Recv(); !ok {
			panic("receive failed")
		}
	}
	// Warm up: intern the per-kind counters, size the queue's backing array
	// and populate the FIFO clamp map.
	for i := 0; i < 32; i++ {
		cycle()
	}
	runtime.GC() // stabilize the pool so the measurement window sees no GC
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("disabled-log sim send allocates: %v allocs/op, want 0", n)
	}
}

// TestCloseEndpointCleansPairHistory is the regression test for the lastAt
// leak: per-pair FIFO clamp entries for crash-stopped or closed endpoints
// used to be retained forever.
func TestCloseEndpointCleansPairHistory(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{Clock: clk, Latency: FixedLatency(time.Millisecond)})
	pairCount := func() int {
		net.mu.Lock()
		defer net.mu.Unlock()
		return len(net.lastAt)
	}

	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("B"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("C"); err != nil {
		t.Fatal(err)
	}
	for _, to := range []string{"B", "C"} {
		if err := a.Send(to, ping(1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := pairCount(); got != 2 {
		t.Fatalf("pair history = %d entries, want 2", got)
	}

	// Crash-stop B: the A->B entry must go; A->C stays.
	if !net.CloseEndpoint("B") {
		t.Fatal("CloseEndpoint(B) found no endpoint")
	}
	if got := pairCount(); got != 1 {
		t.Fatalf("after crash-stop: pair history = %d entries, want 1", got)
	}

	// Graceful close of the sender wipes its remaining entries too.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := pairCount(); got != 0 {
		t.Fatalf("after close: pair history = %d entries, want 0", got)
	}
}

// TestCloseEndpointFreshFIFOBaseline: a re-bound address starts with a fresh
// FIFO history — deliveries to the new incarnation are not clamped behind
// the dead incarnation's (possibly delayed) schedule.
func TestCloseEndpointFreshFIFOBaseline(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{Clock: clk, Latency: FixedLatency(time.Millisecond)})
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	// Push the A->B clamp far into the virtual future via a perturbation
	// delay, then crash-stop and re-bind B.
	net.SetPerturb(func(_, _ string, _ protocol.Message) Verdict {
		return Verdict{Delay: time.Hour}
	})
	if err := a.Send("B", ping(1)); err != nil {
		t.Fatal(err)
	}
	net.SetPerturb(nil)
	_ = b1.Close()
	b2, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Send("B", ping(2)); err != nil {
		t.Fatal(err)
	}
	got := make(chan bool, 1)
	clk.Go(func() {
		_, ok := b2.RecvTimeout(time.Minute)
		got <- ok
	})
	clk.Wait()
	if !<-got {
		t.Fatal("delivery to the re-bound endpoint was clamped behind the dead incarnation's schedule")
	}
}
