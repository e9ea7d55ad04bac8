package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"caaction/internal/protocol"
	"caaction/internal/trace"
	"caaction/internal/vclock"
)

// Tests for the node wire: batched frames, credit-based per-connection
// flow control and sink (inline) receive delivery, in node mode and on
// standalone endpoints. See DESIGN.md "Cross-node fast path".

// TestTCPNodeBatchedSendAllocCeiling pins a hard ceiling on the wire path:
// one send+receive round trip (batch append, coalesced flush, batch decode,
// delivery) must stay within a small constant allocation budget, between
// two standalone endpoints of one process and across two nodes. The gob
// wire needed several allocations per message. The budget is now zero: the
// message is a value, and the read loop interns the sender, the From name
// and the repeated action id. The addresses are two bytes long because Go
// converts one-byte strings without allocating, which would hide a name
// decoded afresh.
func TestTCPNodeBatchedSendAllocCeiling(t *testing.T) {
	const ceiling = 0.0 // allocs per send+recv round trip

	standalone := func(t *testing.T) (a, b Endpoint) {
		n := NewTCP(vclock.NewReal())
		t.Cleanup(func() { _ = n.Close() })
		a, err := n.Endpoint("T1")
		if err != nil {
			t.Fatal(err)
		}
		if b, err = n.Endpoint("T2"); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	node := func(t *testing.T) (a, b Endpoint) {
		var table sync.Map
		n1 := nodeNet(t, map[string]bool{"T1": true}, &table)
		n2 := nodeNet(t, map[string]bool{"T2": true}, &table)
		t.Cleanup(func() { _ = n1.Close(); _ = n2.Close() })
		table.Store("T2", n2.NodeAddr())
		a, err := n1.Endpoint("T1")
		if err != nil {
			t.Fatal(err)
		}
		if b, err = n2.Endpoint("T2"); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	for _, mode := range []struct {
		name  string
		setup func(*testing.T) (Endpoint, Endpoint)
	}{{"standalone", standalone}, {"node", node}} {
		t.Run(mode.name, func(t *testing.T) {
			a, b := mode.setup(t)
			msg := protocol.Message{Kind: protocol.KindSuspended, Action: "bench#1", From: "T1", Round: 1}
			cycle := func() {
				if err := a.Send("T2", msg); err != nil {
					panic(err)
				}
				if _, ok := b.Recv(); !ok {
					panic("receive failed")
				}
			}
			for i := 0; i < 32; i++ {
				cycle() // dial, grow buffers, warm the pools
			}
			runtime.GC()
			if n := testing.AllocsPerRun(100, cycle); n > ceiling {
				t.Fatalf("%s send allocates %v allocs/op, ceiling %v", mode.name, n, ceiling)
			}
		})
	}
}

// TestTCPNodeBatchFramesMetric pins that cross-node traffic actually rides
// batched frames (and counts them): a burst inside one coalesce window
// lands in far fewer batch flushes than messages.
func TestTCPNodeBatchFramesMetric(t *testing.T) {
	var table sync.Map
	n1 := nodeNet(t, map[string]bool{"A": true}, &table)
	n2 := nodeNet(t, map[string]bool{"B": true}, &table)
	defer func() { _ = n1.Close() }()
	defer func() { _ = n2.Close() }()
	table.Store("B", n2.NodeAddr())
	m := new(trace.Metrics)
	n1.SetMetrics(m)

	a, _ := n1.Endpoint("A")
	b, _ := n2.Endpoint("B")
	const burst = 200
	for i := 0; i < burst; i++ {
		if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "m#1", From: "A", Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < burst; i++ {
		d, ok := b.RecvTimeout(5 * time.Second)
		if !ok {
			t.Fatalf("delivery %d lost", i)
		}
		if got := d.Msg.Round; got != i {
			t.Fatalf("FIFO violated across batch boundaries: got round %d at %d", got, i)
		}
	}
	snap := m.Snapshot()
	frames := snap["tcp.batch_frames"]
	if frames < 1 || frames >= burst {
		t.Fatalf("tcp.batch_frames = %d for a %d-message burst, want 1 ≤ frames < %d", frames, burst, burst)
	}
	if snap["msg.total"] != burst {
		t.Fatalf("msg.total = %d, want %d", snap["msg.total"], burst)
	}
}

// fakePeer is a hand-rolled node listener for credit-protocol tests: it
// accepts one connection, advertises a window, and then reads (or refuses
// to read) data frames on command.
type fakePeer struct {
	ln    net.Listener
	conn  net.Conn
	ready chan struct{}
}

func newFakePeer(t *testing.T, window int) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePeer{ln: ln, ready: make(chan struct{})}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.conn = conn
		if window > 0 {
			p.grant(window)
		}
		close(p.ready)
	}()
	return p
}

// grant writes one credit frame on the accepted connection.
func (p *fakePeer) grant(n int) {
	var scratch [24]byte
	buf := protocol.AppendNodeCredit(scratch[:4], n)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	_, _ = p.conn.Write(buf)
}

// drain reads and decodes data frames until count messages arrived or the
// deadline passed, returning the number of messages seen.
func (p *fakePeer) drain(t *testing.T, count int, deadline time.Duration) int {
	t.Helper()
	_ = p.conn.SetReadDeadline(time.Now().Add(deadline))
	br := bufio.NewReader(p.conn)
	var hdr [4]byte
	seen := 0
	for seen < count {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return seen
		}
		n := binary.BigEndian.Uint32(hdr[:])
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return seen
		}
		if !protocol.IsNodeBatch(buf) {
			t.Fatalf("fake peer: %d-byte frame is not a node batch", n)
		}
		if err := protocol.DecodeNodeBatch(buf, nil, func([]byte, string, protocol.Message) error {
			seen++
			return nil
		}); err != nil {
			t.Fatalf("fake peer: batch decode: %v", err)
		}
	}
	return seen
}

func (p *fakePeer) close() {
	if p.conn != nil {
		_ = p.conn.Close()
	}
	_ = p.ln.Close()
}

// TestTCPCreditExhaustionBoundsBufferedMessages is the stalled-peer chaos
// scenario: the peer advertises a window and then stops consuming. The
// sender must accept at most window (on the wire) + window (pending)
// messages, fail everything further with ErrPeerStalled and count the
// stalls — bounded backpressure instead of unbounded batch growth. Once the
// peer drains and grants again, the pending messages flow and none of the
// accepted ones is lost.
func TestTCPCreditExhaustionBoundsBufferedMessages(t *testing.T) {
	for _, mode := range []string{"standalone", "node"} {
		t.Run(mode, func(t *testing.T) { testCreditExhaustion(t, mode == "node") })
	}
}

func testCreditExhaustion(t *testing.T, node bool) {
	const window = 4

	peer := newFakePeer(t, window)
	defer peer.close()
	var sender *TCP
	from := "A" // standalone endpoints keep connections of their own
	if node {
		var table sync.Map
		sender = nodeNet(t, map[string]bool{"A": true}, &table)
		table.Store("B", peer.ln.Addr().String())
		from = ""
	} else {
		sender = NewTCP(vclock.NewReal())
		sender.SetPeer("B", peer.ln.Addr().String())
	}
	defer func() { _ = sender.Close() }()
	m := new(trace.Metrics)
	sender.SetMetrics(m)

	a, err := sender.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	// First send establishes the connection; wait for the advertisement to
	// land so the window is engaged for the rest of the test.
	if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "c#1", From: "A", Round: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-peer.ready:
	case <-time.After(5 * time.Second):
		t.Fatal("fake peer never accepted")
	}
	conn := cachedConn(sender, from, "B")
	if conn == nil {
		t.Fatal("no connection established")
	}
	waitLive := func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			conn.mu.Lock()
			live, pendMax := conn.creditLive, conn.pendMax
			conn.mu.Unlock()
			if live {
				if pendMax != window {
					t.Fatalf("pendMax = %d, want the advertised window %d", pendMax, window)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("credit advertisement never arrived")
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitLive()

	// Push far past the window. The dial-triggering send left before the
	// advertisement landed, so it is not window-accounted; after that the
	// bound is one window of credit plus one window of pending. Everything
	// further must fail typed, and the pending buffer must stay bounded.
	accepted, stalled := 1, 0
	for i := 1; i < window*5; i++ {
		err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "c#1", From: "A", Round: i})
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrPeerStalled):
			stalled++
		default:
			t.Fatalf("send %d: unexpected error %v", i, err)
		}
	}
	if stalled == 0 {
		t.Fatal("no send surfaced ErrPeerStalled past 2×window")
	}
	if accepted > 2*window+1 {
		t.Fatalf("accepted %d sends, bound is 2×window+1 = %d (one pre-advertisement send)", accepted, 2*window+1)
	}
	conn.mu.Lock()
	pendCnt, pendBytes := conn.pendCnt, len(conn.pend)
	conn.mu.Unlock()
	if pendCnt > window {
		t.Fatalf("pending buffer holds %d messages, bound is the window %d", pendCnt, window)
	}
	// Every pending entry is one small Ack; the byte bound follows from the
	// message bound (entry slot + frame), with slack for encoding overhead.
	if maxBytes := window * 64; pendBytes > maxBytes {
		t.Fatalf("pending buffer holds %d bytes for %d small messages (>%d)", pendBytes, pendCnt, maxBytes)
	}
	if got := m.Snapshot()["tcp.credit_stalls"]; got != int64(stalled) {
		t.Fatalf("tcp.credit_stalls = %d, want %d", got, stalled)
	}

	// The peer comes back: grants flow, pending drains, nothing accepted is
	// lost and new sends succeed again.
	peer.grant(4 * window)
	if seen := peer.drain(t, accepted, 5*time.Second); seen != accepted {
		t.Fatalf("peer received %d messages after recovery, want every accepted send (%d)", seen, accepted)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "c#2", From: "A", Round: 99}); err == nil {
			break
		} else if !errors.Is(err, ErrPeerStalled) {
			t.Fatalf("post-recovery send: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("sends never recovered after the peer drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPNodeStaleRouteHealsAfterRestart kills the hosting peer while the
// resolver still points at it: sends fail (typed, not hanging) while the
// resolver is stale, and the moment the resolver learns the restarted
// peer's new address the very next send must flow — no cached connection
// may pin a dead placement.
func TestTCPNodeStaleRouteHealsAfterRestart(t *testing.T) {
	var table sync.Map
	n1 := nodeNet(t, map[string]bool{"A": true}, &table)
	defer func() { _ = n1.Close() }()
	n2 := nodeNet(t, map[string]bool{"B": true}, &table)
	table.Store("B", n2.NodeAddr())
	oldAddr := n2.NodeAddr()

	a, _ := n1.Endpoint("A")
	b1, _ := n2.Endpoint("B")
	if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "pre#1", From: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b1.RecvTimeout(5 * time.Second); !ok {
		t.Fatal("pre-restart delivery failed")
	}

	// Kill B. The resolver still reports the dead address: sends must fail
	// with an error (broken conn or failed dial), not silently cache-hit
	// into the void forever.
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "dead#1", From: "A"}); err != nil {
			break // the break surfaced; the connection is forgotten
		}
		if time.Now().After(deadline) {
			t.Fatal("sends to the dead peer never surfaced an error")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart on a fresh port; only then update the resolver.
	n3 := nodeNet(t, map[string]bool{"B": true}, &table)
	defer func() { _ = n3.Close() }()
	if n3.NodeAddr() == oldAddr {
		t.Skipf("restart reused port %s; cannot exercise re-resolve", oldAddr)
	}
	b2, _ := n3.Endpoint("B")
	table.Store("B", n3.NodeAddr())
	if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "post#1", From: "A"}); err != nil {
		t.Fatalf("send after resolver update: %v", err)
	}
	if d, ok := b2.RecvTimeout(5 * time.Second); !ok || d.Msg.Action != "post#1" {
		t.Fatalf("post-restart delivery failed: %+v %v", d, ok)
	}
}

// TestTCPSinkInstallDrainsQueueInOrder pins the FIFO contract across sink
// installation: deliveries queued before SetSink (retained-frame flushes,
// sends racing the bind) drain through the sink first, and everything
// delivered after the installation takes the sink directly — nothing
// overtakes, nothing is lost.
func TestTCPSinkInstallDrainsQueueInOrder(t *testing.T) {
	var table sync.Map
	n1 := nodeNet(t, map[string]bool{"A": true}, &table)
	n2 := nodeNet(t, map[string]bool{"B": true}, &table)
	defer func() { _ = n1.Close() }()
	defer func() { _ = n2.Close() }()
	table.Store("B", n2.NodeAddr())

	a, _ := n1.Endpoint("A")
	// Send while B is unbound: frames retain, then flush into the queue at
	// bind time — exactly the residue SetSink must drain.
	const early = 5
	for i := 0; i < early; i++ {
		if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "pre#1", From: "A", Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n2.mu.Lock()
		retained := len(n2.retained["B"])
		n2.mu.Unlock()
		if retained == early {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retained %d frames, want %d", retained, early)
		}
		time.Sleep(time.Millisecond)
	}
	bAny, err := n2.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	b := bAny.(*tcpEndpoint)
	if b.queue.Len() != early {
		t.Fatalf("queue holds %d deliveries at bind, want %d", b.queue.Len(), early)
	}

	var mu sync.Mutex
	var got []int
	b.SetSink(func(d Delivery) {
		mu.Lock()
		got = append(got, d.Msg.Round)
		mu.Unlock()
	})
	if b.queue.Len() != 0 {
		t.Fatalf("queue still holds %d deliveries after sink install", b.queue.Len())
	}
	const late = 5
	for i := early; i < early+late; i++ {
		if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "post#1", From: "A", Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == early+late {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink saw %d deliveries, want %d", n, early+late)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, r := range got {
		if r != i {
			t.Fatalf("sink order violated: got round %d at position %d (%v)", r, i, got)
		}
	}
	if b.queue.Len() != 0 {
		t.Fatalf("queue grew after sink install: %d", b.queue.Len())
	}
}

// TestTCPNodeShardTeardownKeepsEarlyFrames pins the lossless-shard-death
// guarantee: a fast peer's frames for a thread's NEXT action instance can
// arrive while the thread closes its LAST open instance, tearing the mux
// shard down. The dying shard must hand its retained frames back to the
// transport (tcpEndpoint.Reinject) instead of discarding them, so the
// successor instance receives them when it opens — previously they
// vanished and the peer's round wedged until the action deadline.
func TestTCPNodeShardTeardownKeepsEarlyFrames(t *testing.T) {
	const early = 5

	var table sync.Map
	n1 := nodeNet(t, map[string]bool{"A": true}, &table)
	n2 := nodeNet(t, map[string]bool{"B": true}, &table)
	defer func() { _ = n1.Close() }()
	defer func() { _ = n2.Close() }()
	table.Store("A", n1.NodeAddr())
	table.Store("B", n2.NodeAddr())

	mux := NewMux(vclock.NewReal(), n2)
	b1, err := mux.Open("i1", "B")
	if err != nil {
		t.Fatal(err)
	}
	a, err := n1.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	// Frames for instance i2, which has not opened on B yet: the shard
	// retains them for a future Open.
	for i := 0; i < early; i++ {
		if err := a.Send("B", enter("i2", "A")); err != nil {
			t.Fatal(err)
		}
	}
	// Let the frames cross the wire and land in the shard's retained set
	// before the teardown races them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b1.(*muxEndpoint).shared.mu.Lock()
		n := b1.(*muxEndpoint).shared.retainedLen
		b1.(*muxEndpoint).shared.mu.Unlock()
		if n >= early {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d early frames retained by the shard", n, early)
		}
		time.Sleep(time.Millisecond)
	}
	// Closing the last instance kills the shard; its retained frames must
	// flow back into the transport, not die with it.
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := mux.Open("i2", "B")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b2.Close() }()
	for i := 0; i < early; i++ {
		d, ok := b2.RecvTimeout(5 * time.Second)
		if !ok {
			t.Fatalf("early frame %d of %d lost in shard teardown", i+1, early)
		}
		if inst := protocol.InstanceOf(d.Msg.Action); inst != "i2" {
			t.Fatalf("frame %d routed instance %q, want i2", i+1, inst)
		}
	}
}
