package transport

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/trace"
	"caaction/internal/vclock"
)

func TestTCPRoundTrip(t *testing.T) {
	clk := vclock.NewReal()
	net := NewTCP(clk)
	defer func() { _ = net.Close() }()

	a, err := net.Endpoint("T1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("T2")
	if err != nil {
		t.Fatal(err)
	}

	want := protocol.Message{Kind: protocol.KindException,
		Action: "act#1",
		From:   "T1",
		Exc:    except.Raised{ID: "vm_stop", Origin: "T1", Info: "motor stalled"}}
	if err := a.Send("T2", want); err != nil {
		t.Fatal(err)
	}
	d, ok := b.RecvTimeout(5 * time.Second)
	if !ok {
		t.Fatal("no delivery")
	}
	if d.From != "T1" {
		t.Fatalf("from = %q", d.From)
	}
	got := d.Msg
	if got.Kind != protocol.KindException || got.Exc.ID != "vm_stop" || got.Exc.Info != "motor stalled" {
		t.Fatalf("got %#v", d.Msg)
	}
}

// TestTCPBinaryWireAppPayload: the binary codec's gob fallback carries
// arbitrary registered App payloads across real sockets.
func TestTCPBinaryWireAppPayload(t *testing.T) {
	clk := vclock.NewReal()
	net := NewTCP(clk)
	defer func() { _ = net.Close() }()
	a, err := net.Endpoint("T1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("T2")
	if err != nil {
		t.Fatal(err)
	}
	// string payloads ride the codec fast path; send one of each shape.
	msgs := []protocol.Message{
		protocol.Message{Kind: protocol.KindApp, Action: "a#1", From: "T1", Role: "r2", Payload: "fast-path"},
		protocol.Message{Kind: protocol.KindApp, Action: "a#1", From: "T1", Role: "r2", Payload: 42},
		protocol.Message{Kind: protocol.KindApp, Action: "a#1", From: "T1", Role: "r2", Payload: nil},
	}
	for _, m := range msgs {
		if err := a.Send("T2", m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		d, ok := b.RecvTimeout(5 * time.Second)
		if !ok {
			t.Fatalf("missing delivery %d", i)
		}
		if got := d.Msg; got.Kind != protocol.KindApp || got.Payload != want.Payload {
			t.Fatalf("payload %d = %#v, want %#v", i, got.Payload, want)
		}
	}
}

// TestTCPCodecErrorKeepsConnection: a pre-I/O encode failure (a message
// of no known kind) must not tear down the healthy cached connection — nothing
// reached the wire, so subsequent sends keep working without a re-dial.
func TestTCPCodecErrorKeepsConnection(t *testing.T) {
	clk := vclock.NewReal()
	net := NewTCP(clk)
	defer func() { _ = net.Close() }()
	a, err := net.Endpoint("T1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("T2")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("T2", protocol.Message{Kind: protocol.KindAck, Action: "x", From: "T1"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.RecvTimeout(5 * time.Second); !ok {
		t.Fatal("no delivery")
	}
	before := cachedConn(net, "T1", "T2")
	if before == nil {
		t.Fatal("no cached connection after first send")
	}

	if err := a.Send("T2", protocol.Message{Kind: protocol.Kind(protocol.NumKinds), Action: "x"}); err == nil {
		t.Fatal("foreign message encoded without error")
	}
	if after := cachedConn(net, "T1", "T2"); after != before {
		t.Fatal("codec error dropped the healthy cached connection")
	}
	if err := a.Send("T2", protocol.Message{Kind: protocol.KindAck, Action: "y", From: "T1"}); err != nil {
		t.Fatalf("send after codec error: %v", err)
	}
	if _, ok := b.RecvTimeout(5 * time.Second); !ok {
		t.Fatal("no delivery after codec error")
	}
}

// cachedConn returns the outbound connection n holds from sender to the
// host:port to resolves to (from is "" for a node's shared connections), or
// nil.
func cachedConn(n *TCP, from, to string) *tcpConn {
	hostport, ok := n.resolve(to)
	if !ok {
		return nil
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.conns[connKey{from: from, hostport: hostport}]
}

// connCount reports how many outbound and accepted connections n holds.
func connCount(n *TCP) (out, in int) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.conns), len(n.inbound)
}

func TestTCPFIFO(t *testing.T) {
	clk := vclock.NewReal()
	net := NewTCP(clk)
	defer func() { _ = net.Close() }()
	a, _ := net.Endpoint("A")
	b, _ := net.Endpoint("B")

	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "x", From: string(rune(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		d, ok := b.RecvTimeout(5 * time.Second)
		if !ok {
			t.Fatalf("missing delivery %d", i)
		}
		if d.Msg.From != string(rune(i)) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestTCPBidirectionalAndMultiplePeers(t *testing.T) {
	clk := vclock.NewReal()
	net := NewTCP(clk)
	defer func() { _ = net.Close() }()
	eps := make(map[string]Endpoint)
	names := []string{"T1", "T2", "T3"}
	for _, n := range names {
		ep, err := net.Endpoint(n)
		if err != nil {
			t.Fatal(err)
		}
		eps[n] = ep
	}
	// Everyone sends to everyone else.
	for _, from := range names {
		for _, to := range names {
			if to == from {
				continue
			}
			if err := eps[from].Send(to, protocol.Message{Kind: protocol.KindSuspended, Action: "a", From: from}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range names {
		seen := map[string]bool{}
		for i := 0; i < len(names)-1; i++ {
			d, ok := eps[n].RecvTimeout(5 * time.Second)
			if !ok {
				t.Fatalf("%s: missing delivery", n)
			}
			seen[d.From] = true
		}
		if len(seen) != len(names)-1 {
			t.Fatalf("%s: saw %v", n, seen)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	clk := vclock.NewReal()
	net := NewTCP(clk)
	defer func() { _ = net.Close() }()
	a, _ := net.Endpoint("A")
	if err := a.Send("ghost", protocol.Message{Kind: protocol.KindAck}); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	clk := vclock.NewReal()
	net := NewTCP(clk)
	a, _ := net.Endpoint("A")
	done := make(chan bool, 1)
	entered := make(chan struct{})
	go func() {
		close(entered)
		_, ok := a.Recv()
		done <- ok
	}()
	// Close unblocks a Recv in progress and fails a Recv issued after it
	// alike, so no sleep is needed — just don't close before the goroutine
	// exists.
	<-entered
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Recv returned ok after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

// TestTCPCloseReleasesAddrBeforeQueue pins the order inside
// tcpEndpoint.Close: the address leaves the network before the receive
// queue closes. A receiver that sees the closed queue — the mux pump, which
// then forgets the address so the next instance binds it afresh — must be
// able to bind the address again at once; closing the queue first failed
// that bind with ErrDuplicateAddr. Holding the network's read lock parks
// Close at the deregistration, so a Recv that returns while the lock is
// held proves the queue closed while the address was still taken.
func TestTCPCloseReleasesAddrBeforeQueue(t *testing.T) {
	net := NewTCP(vclock.NewReal())
	defer func() { _ = net.Close() }()
	ep, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	recvd := make(chan struct{})
	go func() {
		_, _ = ep.Recv()
		close(recvd)
	}()

	net.mu.RLock()
	closed := make(chan error, 1)
	go func() { closed <- ep.Close() }()
	select {
	case <-recvd:
		_, bound := net.eps["A"]
		net.mu.RUnlock()
		if bound {
			t.Fatal("Recv reported the endpoint closed while its address was still bound")
		}
	case <-time.After(500 * time.Millisecond):
		net.mu.RUnlock() // Close is parked at the deregistration; let it finish
	}
	<-recvd
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	again, err := net.Endpoint("A")
	if err != nil {
		t.Fatalf("re-bind after Recv reported the close: %v", err)
	}
	_ = again.Close()
}

// TestTCPRebindInvalidatesCachedConns closes an address and re-binds it on
// a fresh port (what the mux's GC does when an address's last instance
// completes and a later instance reopens it); a peer's cached connection to
// the old incarnation must be dropped and re-dialled, not silently written
// into the dead socket.
func TestTCPRebindInvalidatesCachedConns(t *testing.T) {
	clk := vclock.NewReal()
	net := NewTCP(clk)
	defer func() { _ = net.Close() }()

	a, _ := net.Endpoint("A")
	b1, _ := net.Endpoint("B")
	if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "one", From: "A"}); err != nil {
		t.Fatal(err)
	}
	if d, ok := b1.RecvTimeout(5 * time.Second); !ok || d.Msg.Action != "one" {
		t.Fatalf("first incarnation delivery failed: %+v %v", d, ok)
	}

	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := net.Endpoint("B") // fresh incarnation, fresh port
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "two", From: "A"}); err != nil {
		t.Fatalf("send after re-bind: %v", err)
	}
	d, ok := b2.RecvTimeout(5 * time.Second)
	if !ok || d.Msg.Action != "two" {
		t.Fatalf("message went to the dead incarnation: %+v %v", d, ok)
	}
}

// TestTCPRebindCycleNoLeak binds and closes one address 200 times while a
// peer sends to every incarnation. Closing an endpoint severs the
// connections its listener accepted, and the sender's credit loop then
// forgets its connection to the dead incarnation, so goroutines and cached
// connections return to their baseline. Without either step each re-bind
// leaked a read loop, a credit loop and a connection.
func TestTCPRebindCycleNoLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("re-bind cycles wait on real sockets")
	}
	net := NewTCP(vclock.NewReal())
	defer func() { _ = net.Close() }()
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	const cycles = 200
	for i := 0; i < cycles; i++ {
		b, err := net.Endpoint("B")
		if err != nil {
			t.Fatalf("cycle %d: bind: %v", i, err)
		}
		if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "rebind#1", From: "A", Round: i}); err != nil {
			t.Fatalf("cycle %d: send: %v", i, err)
		}
		d, ok := b.RecvTimeout(5 * time.Second)
		if !ok || d.Msg.Round != i {
			t.Fatalf("cycle %d: delivery %+v %v", i, d, ok)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		g := runtime.NumGoroutine()
		out, in := connCount(net)
		if g <= baseline && out == 0 && in == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d re-binds: %d goroutines (baseline %d), %d outbound and %d inbound connections cached (want 0)",
				cycles, g, baseline, out, in)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPSetPeerAcrossNetworks(t *testing.T) {
	// Two separate TCP networks model two OS processes; the address book
	// introduces them to each other.
	clk := vclock.NewReal()
	n1 := NewTCP(clk)
	n2 := NewTCP(clk)
	defer func() { _ = n1.Close() }()
	defer func() { _ = n2.Close() }()

	a, _ := n1.Endpoint("A")
	b, _ := n2.Endpoint("B")
	bAddr, ok := n2.ListenAddr("B")
	if !ok {
		t.Fatal("no listen addr for B")
	}
	n1.SetPeer("B", bAddr)

	if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "cross", From: "A"}); err != nil {
		t.Fatal(err)
	}
	d, ok := b.RecvTimeout(5 * time.Second)
	if !ok || d.Msg.Action != "cross" {
		t.Fatalf("cross-process delivery failed: %+v %v", d, ok)
	}
}

// TestTCPCoalescedBurst drives a burst through the write coalescer: far
// more frames than one coalesceBytes batch, sent back-to-back, must all
// arrive in order — batches flush on the byte bound mid-burst and on the
// wall-clock deadline for the tail.
func TestTCPCoalescedBurst(t *testing.T) {
	clk := vclock.NewReal()
	net := NewTCP(clk)
	defer func() { _ = net.Close() }()
	if !net.coalesce {
		t.Fatal("real-clock TCP should enable write coalescing")
	}
	a, _ := net.Endpoint("A")
	b, _ := net.Endpoint("B")

	const n = 5000 // ~50 bytes per frame: several 64KiB batches plus a tail
	for i := 0; i < n; i++ {
		if err := a.Send("B", protocol.Message{Kind: protocol.KindCommit, Action: "burst#1", From: "A", Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		d, ok := b.RecvTimeout(5 * time.Second)
		if !ok {
			t.Fatalf("missing delivery %d of %d", i, n)
		}
		if got := d.Msg.Round; got != i {
			t.Fatalf("out of order: got round %d at position %d", got, i)
		}
	}
}

// TestTCPCloseFlushesCoalescedTail pins the Close contract: frames sent
// immediately before Close — too few and too fresh for a size- or
// deadline-driven flush to be guaranteed — still reach the peer, because
// Close flushes every connection's pending batch.
func TestTCPCloseFlushesCoalescedTail(t *testing.T) {
	clk := vclock.NewReal()
	net := NewTCP(clk)
	defer func() { _ = net.Close() }()
	a, _ := net.Endpoint("A")
	b, _ := net.Endpoint("B")

	const n = 7
	for i := 0; i < n; i++ {
		if err := a.Send("B", protocol.Message{Kind: protocol.KindCommit, Action: "tail#1", From: "A", Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		d, ok := b.RecvTimeout(5 * time.Second)
		if !ok {
			t.Fatalf("delivery %d of %d lost across Close", i, n)
		}
		if got := d.Msg.Round; got != i {
			t.Fatalf("out of order: got round %d at position %d", got, i)
		}
	}
}

// nodeNet builds a node-mode TCP network whose resolver consults a shared
// mutable routing table (thread address → node host:port), modelling the
// directory layer a cluster node wires in.
func nodeNet(t *testing.T, hosted map[string]bool, table *sync.Map) *TCP {
	t.Helper()
	clk := vclock.NewReal()
	n := NewTCP(clk)
	local := func(addr string) bool { return hosted[addr] }
	resolve := func(addr string) (string, bool) {
		v, ok := table.Load(addr)
		if !ok {
			return "", false
		}
		return v.(string), true
	}
	if _, err := n.ConfigureNode("127.0.0.1:0", local, resolve); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTCPNodeModeRequiresRealClock: node batches flush on a wall-clock
// deadline, so ConfigureNode refuses a clock without RealTime().
func TestTCPNodeModeRequiresRealClock(t *testing.T) {
	n := NewTCP(vclock.NewVirtual())
	defer func() { _ = n.Close() }()
	if _, err := n.ConfigureNode("127.0.0.1:0", func(string) bool { return true }, func(string) (string, bool) { return "", false }); err == nil {
		t.Fatal("ConfigureNode accepted a clock without RealTime()")
	}
}

// TestTCPNodeModeRoundTrip models two OS processes in node mode: each hosts
// one thread behind a single shared listener, and cross-node sends route via
// the resolver while same-node sends bypass the wire entirely.
func TestTCPNodeModeRoundTrip(t *testing.T) {
	var table sync.Map
	n1 := nodeNet(t, map[string]bool{"A": true, "A2": true}, &table)
	n2 := nodeNet(t, map[string]bool{"B": true}, &table)
	defer func() { _ = n1.Close() }()
	defer func() { _ = n2.Close() }()
	table.Store("A", n1.NodeAddr())
	table.Store("A2", n1.NodeAddr())
	table.Store("B", n2.NodeAddr())

	a, _ := n1.Endpoint("A")
	a2, _ := n1.Endpoint("A2")
	b, _ := n2.Endpoint("B")

	// Cross-node: A → B over n2's node listener.
	if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "x#1", From: "A"}); err != nil {
		t.Fatal(err)
	}
	if d, ok := b.RecvTimeout(5 * time.Second); !ok || d.From != "A" || d.Msg.Action != "x#1" {
		t.Fatalf("cross-node delivery failed: %+v %v", d, ok)
	}
	// Reply path B → A reuses the resolver in the other direction.
	if err := b.Send("A", protocol.Message{Kind: protocol.KindAck, Action: "y#1", From: "B"}); err != nil {
		t.Fatal(err)
	}
	if d, ok := a.RecvTimeout(5 * time.Second); !ok || d.From != "B" {
		t.Fatalf("reply delivery failed: %+v %v", d, ok)
	}
	// Same-node: A → A2 must work without any resolver entry consultation
	// (local bypass), even if the table lied about A2's placement.
	if err := a.Send("A2", protocol.Message{Kind: protocol.KindAck, Action: "loc#1", From: "A"}); err != nil {
		t.Fatal(err)
	}
	if d, ok := a2.RecvTimeout(5 * time.Second); !ok || d.Msg.Action != "loc#1" {
		t.Fatalf("local bypass delivery failed: %+v %v", d, ok)
	}
	// Unknown destination: typed error, not a hang.
	if err := a.Send("nowhere", protocol.Message{Kind: protocol.KindAck, Action: "z#1", From: "A"}); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("send to unhosted thread: err = %v, want ErrUnknownAddr", err)
	}
}

// TestTCPNodeRetainsForUnboundLocal pins the entry-barrier race across
// process boundaries: a frame arriving for a locally-placed thread that has
// not bound its endpoint yet is retained and flushed, in order, when the
// endpoint appears.
func TestTCPNodeRetainsForUnboundLocal(t *testing.T) {
	var table sync.Map
	n1 := nodeNet(t, map[string]bool{"A": true}, &table)
	n2 := nodeNet(t, map[string]bool{"B": true}, &table)
	defer func() { _ = n1.Close() }()
	defer func() { _ = n2.Close() }()
	table.Store("B", n2.NodeAddr())

	a, _ := n1.Endpoint("A")
	// B has NOT bound yet. Sends must succeed (the frame crosses the wire
	// and is retained by n2 on behalf of its locally-placed thread).
	for i := 0; i < 3; i++ {
		if err := a.Send("B", protocol.Message{Kind: protocol.KindCommit, Action: "early#1", From: "A", Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Give the frames time to arrive and be retained before binding; the
	// flush-on-bind path must hand them over regardless.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n2.mu.Lock()
		retained := len(n2.retained["B"])
		n2.mu.Unlock()
		if retained == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retained %d frames for unbound B, want 3", retained)
		}
		time.Sleep(time.Millisecond)
	}
	b, err := n2.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d, ok := b.RecvTimeout(5 * time.Second)
		if !ok {
			t.Fatalf("retained frame %d lost across bind", i)
		}
		if got := d.Msg.Round; got != i {
			t.Fatalf("retained frames out of order: got round %d at %d", got, i)
		}
	}
}

// TestTCPNodeRedialAfterRestart extends the PR 3 stale-connection fix across
// a real process kill/restart: node B dies (listener and all conns torn
// down), comes back as a NEW network on a NEW port, and once the routing
// table reflects the new address, A's sends flow again over a fresh
// connection — no reuse of the dead one, no manual invalidation.
func TestTCPNodeRedialAfterRestart(t *testing.T) {
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
	if d, ok := b1.RecvTimeout(5 * time.Second); !ok || d.Msg.Action != "pre#1" {
		t.Fatalf("pre-restart delivery failed: %+v %v", d, ok)
	}

	// Kill the B process: its listener closes and every established conn dies.
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart: a brand-new network (fresh ephemeral port), same logical role.
	n3 := nodeNet(t, map[string]bool{"B": true}, &table)
	defer func() { _ = n3.Close() }()
	if n3.NodeAddr() == oldAddr {
		t.Skipf("restart reused port %s; cannot exercise new-port re-dial", oldAddr)
	}
	table.Store("B", n3.NodeAddr())

	b2, _ := n3.Endpoint("B")
	// The very next send must reach the new incarnation: the resolver now
	// reports the new host:port, and connections are keyed by host:port, so
	// the cached conn to the dead listener is simply not consulted.
	if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "post#1", From: "A"}); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	if d, ok := b2.RecvTimeout(5 * time.Second); !ok || d.Msg.Action != "post#1" {
		t.Fatalf("post-restart delivery failed: %+v %v", d, ok)
	}
}

// TestTCPNodeMetricsCount checks node-mode sends feed the interned per-kind
// message counters (the §3.3.3 bound checks in the testnet aggregate these
// across nodes).
func TestTCPNodeMetricsCount(t *testing.T) {
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
	for i := 0; i < 4; i++ {
		if err := a.Send("B", protocol.Message{Kind: protocol.KindAck, Action: "m#1", From: "A"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, ok := b.RecvTimeout(5 * time.Second); !ok {
			t.Fatal("delivery lost")
		}
	}
	snap := m.Snapshot()
	if snap["msg.Ack"] != 4 || snap["msg.total"] != 4 {
		t.Fatalf("metrics = %v, want msg.Ack=4 msg.total=4", snap)
	}
}
