package transport

import (
	"net"
	"runtime"
	"testing"
	"time"

	"caaction/internal/protocol"
	"caaction/internal/vclock"
)

// countingConn is a net.Conn stub that counts writes, so a test can prove a
// flush timer did (or did not) fire against a connection after teardown.
type countingConn struct {
	writes chan struct{}
}

func newCountingConn() *countingConn {
	return &countingConn{writes: make(chan struct{}, 64)}
}

func (c *countingConn) Read(b []byte) (int, error)  { return 0, net.ErrClosed }
func (c *countingConn) Write(b []byte) (int, error) { c.writes <- struct{}{}; return len(b), nil }
func (c *countingConn) Close() error                { return nil }
func (c *countingConn) LocalAddr() net.Addr         { return &net.TCPAddr{} }
func (c *countingConn) RemoteAddr() net.Addr        { return &net.TCPAddr{} }
func (c *countingConn) SetDeadline(time.Time) error { return nil }

func (c *countingConn) SetReadDeadline(time.Time) error  { return nil }
func (c *countingConn) SetWriteDeadline(time.Time) error { return nil }

// TestTCPDropConnStopsFlushTimer pins the teardown contract of the re-dial
// path: dropping a connection with a freshly armed coalescing batch must
// stop the flush-deadline timer, so nothing fires against (and nothing is
// written to) the abandoned socket. Before dropConn existed, the sticky-
// write-error → re-dial paths closed the socket but left the armed timer
// running — this test fails against that code.
func TestTCPDropConnStopsFlushTimer(t *testing.T) {
	clk := vclock.NewReal()
	tn := NewTCP(clk)
	defer func() { _ = tn.Close() }()
	if !tn.coalesce {
		t.Fatal("real-clock TCP should enable write coalescing")
	}

	fake := newCountingConn()
	c := &tcpConn{conn: fake, hostport: "127.0.0.1:1"}
	// One small frame: accepted into the batch, batch opens, timer armed.
	if err, broken := tn.writeFrame(c, "A", protocol.Ack{Action: "x#1", From: "A"}); err != nil || broken {
		t.Fatalf("write into fresh batch: err=%v broken=%v", err, broken)
	}
	c.mu.Lock()
	armed := c.timer != nil && len(c.wbuf) > 0
	c.mu.Unlock()
	if !armed {
		t.Fatal("expected an open batch with an armed flush timer")
	}

	dropConn(c)

	// Give a leaked timer ample opportunity (coalesceDelay is 100µs).
	select {
	case <-fake.writes:
		t.Fatal("flush timer fired against a dropped connection")
	case <-time.After(50 * coalesceDelay):
	}
	c.mu.Lock()
	werr := c.werr
	c.mu.Unlock()
	if werr != nil {
		t.Fatalf("dropped connection accumulated a flush error: %v", werr)
	}
}

// TestTCPVirtualClockWritesThrough pins the plain-frame writer under a
// virtual clock, where a wall-clock flush timer could fire outside the
// deterministic schedule: every frame must reach the connection inside its
// own write, with no flush timer armed and nothing left buffered.
func TestTCPVirtualClockWritesThrough(t *testing.T) {
	tn := NewTCP(vclock.NewVirtual())
	defer func() { _ = tn.Close() }()
	if tn.coalesce {
		t.Fatal("virtual-clock TCP must not coalesce writes")
	}

	fake := newCountingConn()
	c := &tcpConn{conn: fake, hostport: "127.0.0.1:1"}
	for i := 0; i < 3; i++ {
		if err, broken := tn.writeFrame(c, "A", protocol.Ack{Action: "x#1", From: "A", Round: i}); err != nil || broken {
			t.Fatalf("frame %d: err=%v broken=%v", i, err, broken)
		}
		if got := len(fake.writes); got != i+1 {
			t.Fatalf("after frame %d: %d writes reached the connection, want %d", i, got, i+1)
		}
		c.mu.Lock()
		armed, buffered := c.timer != nil, len(c.wbuf)
		c.mu.Unlock()
		if armed || buffered != 0 {
			t.Fatalf("after frame %d: timer armed=%v, %d bytes buffered; want neither", i, armed, buffered)
		}
	}
}

// TestTCPRedialCycleNoGoroutineLeak cycles send → peer death → sticky write
// error → re-dial, the path that once leaked armed flush timers, and asserts
// the process-wide goroutine high-water stays bounded (the same measure the
// load harness's sampler gates): each cycle's network goroutines and timers
// must be fully torn down by the next.
func TestTCPRedialCycleNoGoroutineLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("re-dial cycles wait on real sockets")
	}
	clk := vclock.NewReal()
	n1 := NewTCP(clk)
	defer func() { _ = n1.Close() }()
	a, err := n1.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	high := baseline
	const cycles = 25
	for i := 0; i < cycles; i++ {
		n2 := NewTCP(clk)
		b, err := n2.Endpoint("B")
		if err != nil {
			t.Fatal(err)
		}
		bAddr, ok := n2.ListenAddr("B")
		if !ok {
			t.Fatal("no listen addr for B")
		}
		n1.SetPeer("B", bAddr)

		if err := a.Send("B", protocol.Ack{Action: "cycle#1", From: "A", Round: i}); err != nil {
			t.Fatalf("cycle %d: healthy send: %v", i, err)
		}
		if _, ok := b.RecvTimeout(5 * time.Second); !ok {
			t.Fatalf("cycle %d: no delivery", i)
		}

		// Kill the socket out from under the cached connection — what a
		// peer crash looks like from the sender — WITHOUT touching the
		// coalescing state, then send until the sticky write error
		// surfaces: the first sends are batched (and their deadline-driven
		// flush fails against the dead socket), the send that observes the
		// sticky error drops and forgets the connection.
		ae := a.(*tcpEndpoint)
		ae.mu.Lock()
		c := ae.conns["B"]
		ae.mu.Unlock()
		if c == nil {
			t.Fatalf("cycle %d: no cached connection to B", i)
		}
		_ = c.conn.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := a.Send("B", protocol.Ack{Action: "cycle#1", From: "A", Round: i}); err != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: send to dead peer never errored", i)
			}
			time.Sleep(time.Millisecond)
		}
		_ = n2.Close()
		if g := runtime.NumGoroutine(); g > high {
			high = g
		}
	}

	// Settle: transient readLoop/timer goroutines from the last cycle end.
	var final int
	for wait := 0; wait < 100; wait++ {
		final = runtime.NumGoroutine()
		if final <= baseline+4 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final > baseline+4 {
		t.Fatalf("goroutines leaked across re-dial cycles: baseline %d, final %d (high-water %d)", baseline, final, high)
	}
	// Each cycle runs one short-lived network (~4 goroutines); a leak grows
	// the high-water linearly with cycles.
	if high > baseline+cycles {
		t.Fatalf("goroutine high-water %d suggests per-cycle leakage (baseline %d, %d cycles)", high, baseline, cycles)
	}
}
