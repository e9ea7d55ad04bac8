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
// path: forgetting a connection with a freshly armed coalescing batch must
// stop the flush-deadline timer, so nothing fires against (and nothing is
// written to) the abandoned socket. A teardown that closed the socket but
// left the armed timer running fails this test.
func TestTCPDropConnStopsFlushTimer(t *testing.T) {
	clk := vclock.NewReal()
	tn := NewTCP(clk)
	defer func() { _ = tn.Close() }()
	if !tn.coalesce {
		t.Fatal("real-clock TCP should enable write coalescing")
	}

	fake := newCountingConn()
	c := &tcpConn{conn: fake, key: connKey{hostport: "127.0.0.1:1"}, owner: tn}
	// One small frame: accepted into the batch, batch opens, timer armed.
	if err, broken := tn.writeNodeBatched(c, "B", "A", protocol.Message{Kind: protocol.KindAck, Action: "x#1", From: "A"}); err != nil || broken {
		t.Fatalf("write into fresh batch: err=%v broken=%v", err, broken)
	}
	c.mu.Lock()
	armed := c.timer != nil && len(c.wbuf) > 0
	c.mu.Unlock()
	if !armed {
		t.Fatal("expected an open batch with an armed flush timer")
	}

	tn.forget(c)

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

// TestTCPVirtualClockWritesThrough pins the writer under a virtual clock,
// where a wall-clock flush timer could fire outside the deterministic
// schedule: every message must reach the connection inside its own send,
// with no flush timer armed and nothing left buffered — both for the writer
// driven directly and for a standalone endpoint's real connection.
func TestTCPVirtualClockWritesThrough(t *testing.T) {
	tn := NewTCP(vclock.NewVirtual())
	defer func() { _ = tn.Close() }()
	if tn.coalesce {
		t.Fatal("virtual-clock TCP must not coalesce writes")
	}
	idle := func(c *tcpConn, i int) {
		t.Helper()
		c.mu.Lock()
		armed, buffered := c.timer != nil, len(c.wbuf)
		c.mu.Unlock()
		if armed || buffered != 0 {
			t.Fatalf("after message %d: timer armed=%v, %d bytes buffered; want neither", i, armed, buffered)
		}
	}

	t.Run("writer", func(t *testing.T) {
		fake := newCountingConn()
		c := &tcpConn{conn: fake, key: connKey{hostport: "127.0.0.1:1"}, owner: tn}
		for i := 0; i < 3; i++ {
			if err, broken := tn.writeNodeBatched(c, "B", "A", protocol.Message{Kind: protocol.KindAck, Action: "x#1", From: "A", Round: i}); err != nil || broken {
				t.Fatalf("message %d: err=%v broken=%v", i, err, broken)
			}
			if got := len(fake.writes); got != i+1 {
				t.Fatalf("after message %d: %d writes reached the connection, want %d", i, got, i+1)
			}
			idle(c, i)
		}
	})

	t.Run("standalone", func(t *testing.T) {
		a, err := tn.Endpoint("A")
		if err != nil {
			t.Fatal(err)
		}
		b, err := tn.Endpoint("B")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "x#1", From: "A", Round: i}); err != nil {
				t.Fatalf("message %d: %v", i, err)
			}
			c := cachedConn(tn, "A", "B")
			if c == nil {
				t.Fatal("no cached connection from A to B")
			}
			idle(c, i)
		}
		deadline := time.Now().Add(5 * time.Second)
		for b.Pending() < 3 {
			if time.Now().After(deadline) {
				t.Fatalf("%d of 3 written messages arrived", b.Pending())
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestTCPRedialCycleNoGoroutineLeak cycles send → peer death → error →
// re-dial, the path that once leaked armed flush timers: each cycle kills
// the socket under the cached connection (what a peer crash looks like
// from the sender) and then the peer itself, and sends until the failure
// surfaces — as a sticky write error or, once the credit loop has forgotten
// the connection, as a refused re-dial. The goroutine high-water must stay
// bounded (the same measure the load harness's sampler gates), and
// goroutines and cached connections must be back at their baseline after
// the last cycle.
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

		if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "cycle#1", From: "A", Round: i}); err != nil {
			t.Fatalf("cycle %d: healthy send: %v", i, err)
		}
		if _, ok := b.RecvTimeout(5 * time.Second); !ok {
			t.Fatalf("cycle %d: no delivery", i)
		}

		c := cachedConn(n1, "A", "B")
		if c == nil {
			t.Fatalf("cycle %d: no cached connection to B", i)
		}
		_ = c.conn.Close()
		_ = n2.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "cycle#1", From: "A", Round: i}); err != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: send to dead peer never errored", i)
			}
			time.Sleep(time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > high {
			high = g
		}
	}

	// Settle: transient read-loop/timer goroutines from the last cycle end.
	var final, out int
	for wait := 0; wait < 100; wait++ {
		final = runtime.NumGoroutine()
		out, _ = connCount(n1)
		if final <= baseline+4 && out == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final > baseline+4 {
		t.Fatalf("goroutines leaked across re-dial cycles: baseline %d, final %d (high-water %d)", baseline, final, high)
	}
	if out != 0 {
		t.Fatalf("%d outbound connections still cached after the last peer died, want 0", out)
	}
	// Each cycle runs one short-lived network (~4 goroutines); a leak grows
	// the high-water linearly with cycles.
	if high > baseline+cycles {
		t.Fatalf("goroutine high-water %d suggests per-cycle leakage (baseline %d, %d cycles)", high, baseline, cycles)
	}
}
