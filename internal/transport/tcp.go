package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"caaction/internal/protocol"
	"caaction/internal/trace"
	"caaction/internal/vclock"
)

// TCP is a Network carrying protocol messages over TCP connections, for
// genuinely distributed deployments of the runtime (the paper's Ada 95
// partitions become processes). TCP's byte-stream ordering provides the
// per-pair FIFO guarantee of Assumption 2; reliability within a session
// provides Assumption 1.
//
// Messages travel in the hand-rolled length-prefixed binary codec
// (internal/protocol's AppendFrame/DecodeFrame), with encode buffers
// reused per connection so a steady-state send performs no codec
// allocations.
//
// On a real clock, outbound frames are write-coalesced per peer
// connection: a frame is appended to the connection's pending batch and the
// batch is flushed either once it reaches coalesceBytes or when the
// coalesceDelay flush deadline (a wall-clock timer armed when the batch
// opens) fires — so a burst of protocol messages to one peer costs one
// syscall instead of one per frame, at a bounded worst-case added latency
// of coalesceDelay. Frame order per connection is preserved (FIFO batches),
// write errors are sticky and surface on the next Send to that peer (which
// then re-dials), and Close flushes. Under a virtual clock each frame is
// flushed as soon as it is encoded: a wall-clock flush timer could fire
// outside the deterministic schedule.
//
// Endpoints created in this process listen on loopback by default; peers in
// other processes are introduced with SetPeer. Construct with NewTCP.
//
// # Node mode
//
// ConfigureNode switches the network into cluster node mode: instead of one
// listener per logical endpoint, the whole process listens once and every
// message carries its destination thread address on the wire, inside
// batched node frames under per-peer credit flow control (see DESIGN.md
// "Cross-node fast path"). A thread address then resolves node-first:
// outbound sends ask the configured resolver which node (host:port)
// currently hosts the destination thread and share one connection per
// destination node across all local endpoints, and the node listener
// routes inbound frames to the local endpoint bound to the frame's
// destination address. Frames for locally-placed threads whose
// endpoint has not bound yet (a fast peer racing the local action start)
// are retained — bounded — and flushed when the endpoint binds; frames for
// unknown addresses are dropped. Sends between two locally-hosted threads
// bypass the wire and go straight to the destination receive queue.
type TCP struct {
	clock vclock.Clock

	// coalesce enables per-connection write batching; set when the clock is
	// wall-clock-backed (vclock.Real's RealTime marker). Node mode requires
	// it.
	coalesce bool

	// metrics, when non-nil, counts sends as "msg.<Kind>" plus "msg.total"
	// through interned counters (see SetMetrics); counters are resolved
	// lazily so a steady-state send costs two atomic adds.
	metrics  *trace.Metrics
	counters [protocol.NumKinds]atomic.Pointer[trace.Counter]
	total    atomic.Pointer[trace.Counter]

	// mu is read-mostly on the send hot path (every dial consults the book
	// to detect address re-binds), so readers take the shared lock.
	mu     sync.RWMutex
	listen string            // host:port listeners bind to; loopback default
	book   map[string]string // logical address -> host:port
	eps    map[string]*tcpEndpoint
	closed bool

	// Node-mode state (ConfigureNode).
	node        bool
	nodeLn      net.Listener
	local       func(addr string) bool           // thread placed on this node?
	resolver    func(addr string) (string, bool) // thread -> hosting node's host:port
	nodeConns   map[string]*tcpConn              // outbound, keyed by node host:port
	nodeIn      map[net.Conn]struct{}            // accepted inbound node conns
	retained    map[string][]Delivery            // local threads not yet bound
	retainedLen int

	// window is the per-peer credit window in messages; like node, it is
	// written before traffic flows.
	window int

	// routes caches thread→placement lookups (local + hosting node) so a
	// burst of sends within one coalesce window consults the resolver once
	// per destination instead of once per message. Entries are keyed by
	// thread address (a bounded set: the deployment's placements) and expire
	// when routeGen moves — bumped on every batch flush and on connection
	// drops, so a restarted peer is re-resolved within one flush window.
	routes   sync.Map // thread addr -> *nodeRoute
	routeGen atomic.Uint64

	// Interned node-wire counters ("tcp.batch_frames", "tcp.credit_stalls",
	// "tcp.reinjected").
	batchFrames  atomic.Pointer[trace.Counter]
	creditStalls atomic.Pointer[trace.Counter]
	reinjected   atomic.Pointer[trace.Counter]
}

// nodeRoute is one cached placement lookup; valid while gen matches the
// network's routeGen.
type nodeRoute struct {
	local    bool
	hostport string
	gen      uint64
}

// ErrPeerStalled reports that a destination node's credit window and the
// bounded pending buffer behind it are both exhausted: the peer granted
// credits once but has stopped consuming, so accepting more traffic for it
// would buffer without bound. The connection stays healthy — sends resume
// as soon as the peer drains and grants again.
var ErrPeerStalled = fmt.Errorf("transport: peer stalled (credit window exhausted)")

var _ Network = (*TCP)(nil)

// maxFrame bounds one binary frame (1 MiB): a length prefix beyond it marks
// a corrupt or hostile stream and closes the connection instead of
// attempting the allocation.
const maxFrame = 1 << 20

// Write-coalescing bounds: a batch flushes as soon as it holds
// coalesceBytes, and a partial batch flushes when the coalesceDelay
// deadline fires. The delay bounds the latency a coalesced frame can gain;
// the byte bound caps batch memory and keeps a sustained stream flowing.
const (
	coalesceBytes = 64 << 10
	coalesceDelay = 100 * time.Microsecond
	// coalesceMaxRetain bounds the batch capacity a quiet connection keeps
	// pinned after a burst.
	coalesceMaxRetain = 256 << 10
)

// Node-wire bounds.
const (
	// defaultPeerWindow is the per-peer credit window in messages: the most
	// a sender may have on the wire past the peer's last grant. The pending
	// buffer behind an exhausted window holds the same again, so a stalled
	// peer pins at most 2×window encoded messages per connection.
	defaultPeerWindow = 4096
	// maxNodeBatch bounds one batched node frame on the wire: at most one
	// coalesce window of accumulated entries plus one maximum-size frame
	// appended just before the size-driven flush (plus headers).
	maxNodeBatch = maxFrame + coalesceBytes + 64
	// grantWriteTimeout bounds a credit-grant write on an inbound node
	// connection. A peer that does not read its grants absorbs them into its
	// socket buffer; if even that backs up, granting stops for that
	// connection while reading continues — the peer then runs out of credit
	// and its sends fail with ErrPeerStalled instead of the read loop
	// stalling.
	grantWriteTimeout = time.Second
)

// frameBufPool recycles the read loops' frame buffers.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// NewTCP returns a TCP network speaking the binary wire codec. The clock is
// used only for receive queues and timeouts; it should be a real clock in
// production.
func NewTCP(clock vclock.Clock) *TCP {
	protocol.RegisterGob() // App payload fallbacks still ride gob
	_, real := clock.(interface{ RealTime() })
	return &TCP{
		clock:    clock,
		coalesce: real,
		window:   defaultPeerWindow,
		book:     make(map[string]string),
		eps:      make(map[string]*tcpEndpoint),
	}
}

// SetPeerWindow sets the per-peer credit window in messages (default 4096).
// The window is advertised to each dialling peer on the wire; a sender that
// exhausts it buffers up to one more window and then fails sends with
// ErrPeerStalled until the peer drains. Non-positive values are ignored.
// Must be called before endpoints are created.
func (t *TCP) SetPeerWindow(n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.window = n
}

// countBatchFrame records one flushed batched node frame.
func (t *TCP) countBatchFrame() {
	m := t.metrics
	if m == nil {
		return
	}
	c := t.batchFrames.Load()
	if c == nil {
		c = m.Counter("tcp.batch_frames")
		t.batchFrames.Store(c)
	}
	c.Add(1)
}

// countCreditStall records one send rejected by an exhausted credit window.
func (t *TCP) countCreditStall() {
	m := t.metrics
	if m == nil {
		return
	}
	c := t.creditStalls.Load()
	if c == nil {
		c = m.Counter("tcp.credit_stalls")
		t.creditStalls.Store(c)
	}
	c.Add(1)
}

// countReinject records one delivery handed back by a dying mux shard and
// re-retained for its address's next bind.
func (t *TCP) countReinject() {
	m := t.metrics
	if m == nil {
		return
	}
	c := t.reinjected.Load()
	if c == nil {
		c = m.Counter("tcp.reinjected")
		t.reinjected.Store(c)
	}
	c.Add(1)
}

// SetMetrics attaches a counter set recording per-kind send counts
// ("msg.<Kind>" and "msg.total"), matching the sim transport's counters so
// cluster deployments can check the paper's §3.3.3 message bounds across
// real processes. Call before traffic flows.
func (t *TCP) SetMetrics(m *trace.Metrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.metrics = m
}

// count records one sent message of the given dense kind index through the
// interned counters; a nil metrics set costs one predictable branch.
func (t *TCP) count(kind int) {
	m := t.metrics
	if m == nil {
		return
	}
	if kind >= 0 && kind < protocol.NumKinds {
		c := t.counters[kind].Load()
		if c == nil {
			c = m.Counter(protocol.MetricNames[kind])
			t.counters[kind].Store(c)
		}
		c.Add(1)
	}
	tc := t.total.Load()
	if tc == nil {
		tc = m.Counter("msg.total")
		t.total.Store(tc)
	}
	tc.Add(1)
}

// nodeRetainCap bounds the deliveries a node retains for locally-placed
// threads whose endpoints have not bound yet (a fast peer's frame racing the
// local action start). Once full, further early frames are dropped — the
// same bounded-buffer stance as the Mux's retained set.
const nodeRetainCap = 4096

// ConfigureNode switches the network into cluster node mode (see the type
// docs): one shared listener for the whole process, node-qualified frames,
// resolver-based thread→node routing, and bounded retention for early
// frames to locally-placed threads. local reports whether a thread address
// is placed on this node; resolve maps a thread address to the host:port of
// the node currently hosting it (consulted per send, so a peer that
// restarts on a new port is re-dialled as soon as the resolver learns the
// new address). Node mode needs a real clock: its batches flush on a
// wall-clock deadline. Must be called before any Endpoint is created;
// returns the bound listen address for exchange with peers.
func (t *TCP) ConfigureNode(listen string, local func(string) bool, resolve func(string) (string, bool)) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return "", ErrClosed
	}
	if t.node {
		return "", fmt.Errorf("transport: node mode already configured")
	}
	if !t.coalesce {
		return "", fmt.Errorf("transport: node mode requires a real clock")
	}
	if len(t.eps) > 0 {
		return "", fmt.Errorf("transport: node mode must be configured before endpoints are created")
	}
	if local == nil || resolve == nil {
		return "", fmt.Errorf("transport: node mode requires local and resolve functions")
	}
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return "", fmt.Errorf("transport: node listen: %w", err)
	}
	t.node = true
	t.nodeLn = ln
	t.local = local
	t.resolver = resolve
	t.nodeConns = make(map[string]*tcpConn)
	t.nodeIn = make(map[net.Conn]struct{})
	t.retained = make(map[string][]Delivery)
	go t.nodeAcceptLoop(ln)
	return ln.Addr().String(), nil
}

// NodeAddr reports the node listener's bound host:port ("" outside node
// mode), for announcement to peers.
func (t *TCP) NodeAddr() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.nodeLn == nil {
		return ""
	}
	return t.nodeLn.Addr().String()
}

// SetListenAddr changes the host:port future endpoints listen on (e.g.
// "0.0.0.0:0" to accept non-loopback peers). The default is "127.0.0.1:0".
func (t *TCP) SetListenAddr(hostport string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.listen = hostport
}

// SetPeer records the host:port of a logical address served by another
// process.
func (t *TCP) SetPeer(addr, hostport string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.book[addr] = hostport
}

// ListenAddr reports the host:port a local endpoint is listening on, for
// exchange with other processes.
func (t *TCP) ListenAddr(addr string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	hp, ok := t.book[addr]
	return hp, ok
}

// Endpoint implements Network. In node mode the endpoint shares the node
// listener (no per-endpoint socket) and any frames retained for its address
// are flushed into its receive queue before the bind is visible.
func (t *TCP) Endpoint(addr string) (Endpoint, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if _, ok := t.eps[addr]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateAddr, addr)
	}
	if t.node {
		ep := &tcpEndpoint{
			net:   t,
			addr:  addr,
			queue: t.clock.NewQueue(),
		}
		t.eps[addr] = ep
		if pend := t.retained[addr]; len(pend) > 0 {
			delete(t.retained, addr)
			t.retainedLen -= len(pend)
			for _, d := range pend {
				ep.queue.Put(borrowDelivery(d.From, d.Msg, d.Corrupt))
			}
		}
		return ep, nil
	}
	listen := t.listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	ep := &tcpEndpoint{
		net:   t,
		addr:  addr,
		ln:    ln,
		queue: t.clock.NewQueue(),
		conns: make(map[string]*tcpConn),
	}
	t.eps[addr] = ep
	t.book[addr] = ln.Addr().String()
	go ep.acceptLoop()
	return ep, nil
}

// Close implements Network.
func (t *TCP) Close() error {
	t.mu.Lock()
	eps := make([]*tcpEndpoint, 0, len(t.eps))
	for _, ep := range t.eps {
		eps = append(eps, ep)
	}
	nodeLn := t.nodeLn
	conns := make([]*tcpConn, 0, len(t.nodeConns))
	for _, c := range t.nodeConns {
		conns = append(conns, c)
	}
	t.nodeConns = nil
	inbound := make([]net.Conn, 0, len(t.nodeIn))
	for conn := range t.nodeIn {
		inbound = append(inbound, conn)
	}
	t.nodeIn = nil
	t.closed = true
	t.mu.Unlock()
	if nodeLn != nil {
		_ = nodeLn.Close()
	}
	for _, c := range conns {
		closeConn(c)
	}
	for _, conn := range inbound {
		_ = conn.Close()
	}
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

// closeConn flushes any coalesced tail, stops the flush timer and closes the
// socket.
func closeConn(c *tcpConn) {
	c.mu.Lock()
	_ = c.flushLocked()
	if c.timer != nil {
		c.timer.Stop()
	}
	c.mu.Unlock()
	_ = c.conn.Close()
}

// dropConn abandons a broken or stale connection: the flush timer is stopped
// (nothing may fire on a dead socket after the owner forgot it) and the
// socket closed, with no flush attempt — the stream is already poisoned or
// belongs to a stale incarnation. Every teardown path must stop the timer:
// closeConn for healthy closes, dropConn here for the re-dial paths, or a
// batch-open timer on a forgotten connection outlives it.
func dropConn(c *tcpConn) {
	c.mu.Lock()
	if c.timer != nil {
		c.timer.Stop()
	}
	c.mu.Unlock()
	_ = c.conn.Close()
}

type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
	// hostport is the physical address this connection was dialled to; a
	// cached connection is only reused while the logical address still
	// resolves there (re-binding an address — e.g. the mux tearing a thread
	// address down and a later instance reopening it on a fresh port —
	// would otherwise leave peers sending into the dead incarnation).
	hostport string
	// owner backs the node-wire hooks a flush needs (batch-frame counting,
	// route-cache expiry); nil on per-endpoint (non-node) connections.
	owner *TCP

	// Write state (see the TCP type docs). wbuf accumulates encoded frames
	// (on a virtual clock it holds at most the one frame being written);
	// timer is the reused flush-deadline timer, armed whenever a batch
	// opens on a real clock; werr is the sticky error of a failed
	// (possibly timer-driven) flush, surfaced on the next Send so the
	// caller drops and re-dials the connection.
	// batching marks wbuf as one open batched node frame (outer length
	// placeholder + batch header + entries) rather than a run of
	// self-prefixed frames; the flush backfills the outer length.
	wbuf     []byte
	timer    *time.Timer
	werr     error
	batching bool

	// Credit flow control (node connections). creditLive latches at the
	// peer's first grant; until then sends are not credit-limited.
	// credits is the remaining grant balance; once exhausted, encoded
	// entries accumulate in pend (bounded to pendMax messages, FIFO ahead
	// of new sends) until the next grant splices them into the batch.
	creditLive bool
	credits    int
	pend       []byte
	pendCnt    int
	pendMax    int
}

// flushLocked writes the pending batch in one syscall, closing and
// backfilling the open batched frame first when one is open. c.mu must be
// held.
func (c *tcpConn) flushLocked() error {
	if c.werr != nil {
		return c.werr
	}
	if len(c.wbuf) == 0 {
		return nil
	}
	if c.batching {
		binary.BigEndian.PutUint32(c.wbuf[:4], uint32(len(c.wbuf)-4))
		c.batching = false
		if c.owner != nil {
			c.owner.countBatchFrame()
			// One batch flushed: expire the route cache so the next batch
			// re-resolves its destinations (the "once per flush" contract).
			c.owner.routeGen.Add(1)
		}
	}
	_, err := c.conn.Write(c.wbuf)
	if cap(c.wbuf) > coalesceMaxRetain {
		c.wbuf = nil
	} else {
		c.wbuf = c.wbuf[:0]
	}
	c.werr = err
	return err
}

// armTimerLocked arms (or re-arms) the flush-deadline timer. The timer is
// created once per connection and reused; a size-driven flush may let it
// fire on an empty (or younger) batch, which is a harmless early flush.
// c.mu must be held.
func (c *tcpConn) armTimerLocked() {
	if c.timer == nil {
		c.timer = time.AfterFunc(coalesceDelay, func() {
			c.mu.Lock()
			_ = c.flushLocked() // failure is sticky; the next Send re-dials
			c.mu.Unlock()
		})
	} else {
		c.timer.Reset(coalesceDelay)
	}
}

// nodeAcceptLoop accepts peer-node connections on the shared node listener.
// Accepted connections are tracked in nodeIn so Close can sever inbound
// streams too — peers then observe a node shutdown as a broken connection
// rather than a silent black hole.
func (t *TCP) nodeAcceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed || t.nodeIn == nil {
			t.mu.Unlock()
			_ = conn.Close()
			continue
		}
		t.nodeIn[conn] = struct{}{}
		t.mu.Unlock()
		go t.nodeReadLoop(conn)
	}
}

// nodeReadLoop decodes batched node frames off one inbound connection and
// routes each entry to the local endpoint bound to its destination address.
// It also runs the receiver half of the credit protocol: it advertises the
// window up front and grants again each time half a window has been
// consumed, writing grants back on the inbound connection (the only writer
// on it, so no lock is needed).
func (t *TCP) nodeReadLoop(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.nodeIn, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	var hdr [4]byte
	bp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bp)
	t.mu.RLock()
	window := t.window
	t.mu.RUnlock()
	granting := sendGrant(conn, window)
	threshold := window / 2
	if threshold < 1 {
		threshold = 1
	}
	consumed := 0
	deliver := func(to, from string, msg protocol.Message) error {
		t.deliverNode(to, from, msg)
		consumed++
		return nil
	}
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxNodeBatch {
			return // corrupt or hostile stream
		}
		if cap(*bp) < int(n) {
			*bp = make([]byte, 0, n)
		}
		buf := (*bp)[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		switch {
		case protocol.IsNodeBatch(buf):
			if err := protocol.DecodeNodeBatch(buf, deliver); err != nil {
				return // a framing error poisons the stream
			}
		case !protocol.IsNodeControl(buf):
			return // not a batch: a corrupt stream; drop the connection
		}
		// Other control kinds are ignored: data connections only carry
		// batches, and dropping unknowns keeps the wire extensible.
		if granting && consumed >= threshold {
			granting = sendGrant(conn, consumed)
			consumed = 0
		}
	}
}

// sendGrant writes one credit grant on an inbound node connection under a
// short write deadline; false means granting should stop for this
// connection (the peer is not draining its grant stream) while reading
// continues.
func sendGrant(conn net.Conn, grant int) bool {
	var scratch [24]byte
	buf := protocol.AppendNodeCredit(scratch[:4], grant)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	_ = conn.SetWriteDeadline(time.Now().Add(grantWriteTimeout))
	_, err := conn.Write(buf)
	_ = conn.SetWriteDeadline(time.Time{})
	return err == nil
}

// creditReadLoop runs on the dialling side of an outbound node connection,
// consuming the grant stream the accepting peer writes back. It exits when
// the connection closes.
func (t *TCP) creditReadLoop(c *tcpConn) {
	br := bufio.NewReader(c.conn)
	var hdr [4]byte
	var buf [64]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > uint32(len(buf)) {
			return // grants are tiny; anything else is corrupt
		}
		if _, err := io.ReadFull(br, buf[:n]); err != nil {
			return
		}
		grant, err := protocol.DecodeNodeCredit(buf[:n])
		if err != nil {
			return
		}
		t.handleGrant(c, grant)
	}
}

// handleGrant credits one grant to an outbound connection and splices as
// many pending entries as the new balance allows into the open batch,
// flushing at the byte bound so a large backlog drains in wire-legal
// frames.
func (t *TCP) handleGrant(c *tcpConn, grant int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.creditLive {
		c.creditLive = true
		// The first grant is the peer's window advertisement; size the
		// pending buffer to one window, so a stalled peer pins at most
		// 2×window messages here (window on the wire + window pending).
		if grant > 0 {
			c.pendMax = grant
		}
	}
	c.credits += grant
	if c.pendCnt == 0 || c.werr != nil {
		return
	}
	off, moved := 0, 0
	for moved < c.pendCnt && c.credits > 0 {
		e := nodeBatchEntrySize + int(binary.BigEndian.Uint32(c.pend[off:]))
		if len(c.wbuf) == 0 {
			c.wbuf = protocol.AppendNodeBatchHeader(append(c.wbuf, 0, 0, 0, 0))
			c.batching = true
		}
		c.wbuf = append(c.wbuf, c.pend[off:off+e]...)
		off += e
		moved++
		c.credits--
		if len(c.wbuf) >= coalesceBytes {
			if c.flushLocked() != nil {
				break // sticky; surfaced on the next send
			}
		}
	}
	c.pendCnt -= moved
	rest := copy(c.pend, c.pend[off:])
	c.pend = c.pend[:rest]
	if c.pendCnt == 0 && cap(c.pend) > coalesceMaxRetain {
		c.pend = nil
	}
	if len(c.wbuf) > 0 && c.werr == nil {
		c.armTimerLocked()
	}
}

// nodeBatchEntrySize is the fixed per-entry length-slot size of the batch
// wire format (see protocol.AppendNodeBatchEntry).
const nodeBatchEntrySize = 4

// deliverNode hands one frame to the local endpoint bound to the destination
// address, retaining it (bounded) when the destination is a locally-placed
// thread that has not bound yet. Frames for addresses this node does not
// host are dropped — a stale peer routing to the wrong node must not crash
// the right one. Reports whether the frame was delivered or retained.
func (t *TCP) deliverNode(to, from string, msg protocol.Message) bool {
	t.mu.RLock()
	ep := t.eps[to]
	t.mu.RUnlock()
	if ep != nil {
		ep.deliver(from, msg)
		return true
	}
	t.mu.Lock()
	if ep = t.eps[to]; ep != nil {
		// The endpoint bound between the fast-path check and this lock; its
		// retained frames (if any) were flushed under the same lock, so
		// delivering now preserves arrival order.
		t.mu.Unlock()
		ep.deliver(from, msg)
		return true
	}
	defer t.mu.Unlock()
	if t.closed || t.local == nil || !t.local(to) || t.retainedLen >= nodeRetainCap {
		return false
	}
	t.retained[to] = append(t.retained[to], Delivery{From: from, Msg: msg})
	t.retainedLen++
	return true
}

// nodeSend routes one outbound message in node mode: straight into the
// destination queue for locally-hosted threads, otherwise over the shared
// per-node connection of whichever node the resolver says currently hosts
// the destination thread.
func (t *TCP) nodeSend(from, to string, msg protocol.Message) error {
	r, err := t.routeFor(to)
	if err != nil {
		return err
	}
	kind := protocol.KindIndexOf(msg)
	if r.local {
		if !t.deliverNode(to, from, msg) {
			return fmt.Errorf("transport: send to %q: local retention full", to)
		}
		t.count(kind)
		return nil
	}
	c, err := t.dialNode(r.hostport)
	if err != nil {
		t.routes.Delete(to) // the cached placement may be the stale part
		return fmt.Errorf("transport: send to %q: %w", to, err)
	}
	err, broken := t.writeNodeBatched(c, to, from, msg)
	if err != nil {
		t.routes.Delete(to)
		if broken {
			t.mu.Lock()
			if t.nodeConns[r.hostport] == c {
				delete(t.nodeConns, r.hostport)
			}
			t.mu.Unlock()
			dropConn(c)
			// A dropped connection invalidates every destination routed
			// through it; the next sends re-resolve (and re-dial wherever
			// the resolver now points), which is how a restarted peer heals.
			t.routeGen.Add(1)
		}
		return fmt.Errorf("transport: send to %q via %s: %w", to, r.hostport, err)
	}
	t.count(kind)
	return nil
}

// routeFor resolves a destination thread's placement — local, or the
// hosting node's host:port — consulting the per-flush route cache first on
// the fast path. A cache entry is valid while routeGen stands still, i.e.
// within the current coalesce window of every peer connection: a burst of
// sends to one destination inside a 100µs flush window resolves once. A
// placement change (thread migration, peer restart) is picked up at the
// next flush or connection drop, whichever comes first.
func (t *TCP) routeFor(to string) (nodeRoute, error) {
	gen := t.routeGen.Load()
	if v, ok := t.routes.Load(to); ok {
		if r := v.(*nodeRoute); r.gen == gen {
			return *r, nil
		}
	}
	t.mu.RLock()
	closed := t.closed
	local := t.local(to)
	t.mu.RUnlock()
	if closed {
		return nodeRoute{}, ErrClosed
	}
	r := nodeRoute{local: local, gen: gen}
	if !local {
		hostport, ok := t.resolver(to)
		if !ok {
			// Not cached: an unplaced thread must heal the moment the
			// resolver learns it, not a flush later.
			return nodeRoute{}, fmt.Errorf("%w: %q (no live node hosts it)", ErrUnknownAddr, to)
		}
		r.hostport = hostport
	}
	t.routes.Store(to, &r)
	return r, nil
}

// dialNode returns the shared connection to a peer node, dialling on first
// use. Connections are keyed by the node's host:port, so a peer that
// restarts on a new port naturally gets a fresh connection as soon as the
// resolver reports the new address (the stale one is dropped by the next
// failed write).
func (t *TCP) dialNode(hostport string) (*tcpConn, error) {
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return nil, ErrClosed
	}
	c := t.nodeConns[hostport]
	t.mu.RUnlock()
	if c != nil {
		return c, nil
	}
	conn, err := net.DialTimeout("tcp", hostport, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial node %s: %w", hostport, err)
	}
	c = &tcpConn{conn: conn, hostport: hostport, owner: t}
	t.mu.Lock()
	c.pendMax = t.window
	if t.closed {
		t.mu.Unlock()
		_ = conn.Close()
		return nil, ErrClosed
	}
	if prev, ok := t.nodeConns[hostport]; ok {
		t.mu.Unlock()
		_ = conn.Close() // lost the race; reuse the established one
		return prev, nil
	}
	t.nodeConns[hostport] = c
	t.mu.Unlock()
	// The accepting side writes credit grants back on this connection;
	// consume them. The loop exits when the connection closes.
	go t.creditReadLoop(c)
	return c, nil
}

type tcpEndpoint struct {
	net   *TCP
	addr  string
	ln    net.Listener // nil in node mode (the node listener is shared)
	queue *vclock.Queue

	// sink, when installed (see SetSink), receives inbound deliveries
	// synchronously on the read-loop goroutine — the mux's inline lane —
	// instead of through the queue and its pump goroutine. dmu serialises
	// installation against in-flight deliveries so nothing can overtake a
	// delivery queued just before the switch.
	sink atomic.Pointer[func(Delivery)]
	dmu  sync.Mutex

	mu     sync.Mutex
	conns  map[string]*tcpConn // outbound, keyed by destination logical addr
	closed bool
}

var _ Endpoint = (*tcpEndpoint)(nil)

func (e *tcpEndpoint) Addr() string { return e.addr }

// MarkDaemon marks receives on this endpoint as virtual-clock daemon waits;
// see vclock.Queue.SetDaemon.
func (e *tcpEndpoint) MarkDaemon() { e.queue.SetDaemon() }

// SetSink installs the synchronous delivery sink the Mux probes for (see
// Mux.Open): with one installed, read loops hand deliveries straight to the
// mux dispatch — and from there into the inline lane — skipping the shared
// queue and the pump wakeup. Deliveries that arrived before the switch are
// drained through the sink first, in order, under the same lock that gates
// new deliveries into the queue, so the per-pair FIFO guarantee holds
// across the installation: a delivery can only take the sink shortcut once
// nothing older is queued ahead of it. A nil fn removes the sink.
func (e *tcpEndpoint) SetSink(fn func(Delivery)) {
	if fn == nil {
		e.sink.Store(nil)
		return
	}
	for {
		e.dmu.Lock()
		x, ok := e.queue.TryGet()
		if !ok {
			// Queue verified empty with deliverers excluded: install. A
			// deliverer blocked on dmu re-checks the sink and uses it.
			e.sink.Store(&fn)
			e.dmu.Unlock()
			return
		}
		e.dmu.Unlock()
		if d, ok := unboxDelivery(x, ok); ok {
			fn(d) // outside dmu: the dispatch chain may deliver elsewhere
		}
	}
}

// deliver routes one inbound delivery: through the sink when installed,
// into the receive queue otherwise. The double-checked dmu path closes the
// installation race (see SetSink).
func (e *tcpEndpoint) deliver(from string, msg protocol.Message) {
	if sp := e.sink.Load(); sp != nil {
		(*sp)(Delivery{From: from, Msg: msg})
		return
	}
	e.dmu.Lock()
	if sp := e.sink.Load(); sp != nil {
		e.dmu.Unlock()
		(*sp)(Delivery{From: from, Msg: msg})
		return
	}
	box := borrowDelivery(from, msg, false)
	ok := e.queue.PutOpen(box)
	e.dmu.Unlock()
	if !ok {
		// The endpoint closed under a deliverer still holding a stale
		// reference; a closed queue drops new arrivals, so hand the frame
		// back to the retention path instead of losing it.
		releaseDelivery(box)
		e.Reinject(Delivery{From: from, Msg: msg})
	}
}

// Reinject hands a delivery back to the transport after its original
// destination endpoint closed — the mux calls it (via interface probe) when
// a shard dies with early frames still retained for instances that never
// opened, and deliver falls back to it when a stale reference races Close.
// In node mode the frame is re-retained for the address's next bind (or
// delivered straight to an already-bound successor); outside node mode
// there is no retention and the frame is dropped, the pre-existing
// semantics for traffic to a closed endpoint. Reports whether the frame
// survived.
//
// Lock order: callers may hold a mux shard lock; Reinject takes the
// network lock under it. The reverse order (network lock, then shard lock)
// must never occur — deliverNode releases t.mu before ep.deliver for this
// reason.
func (e *tcpEndpoint) Reinject(d Delivery) bool {
	t := e.net
	if !t.node {
		return false
	}
	t.mu.Lock()
	if ep := t.eps[e.addr]; ep != nil && ep != e {
		// A successor already bound (it replayed the retained set before
		// becoming visible); deliver straight to it.
		t.mu.Unlock()
		ep.deliver(d.From, d.Msg)
		return true
	}
	defer t.mu.Unlock()
	if t.closed || t.local == nil || !t.local(e.addr) || t.retainedLen >= nodeRetainCap {
		return false
	}
	t.retained[e.addr] = append(t.retained[e.addr], Delivery{From: d.From, Msg: d.Msg, Corrupt: d.Corrupt})
	t.retainedLen++
	t.countReinject()
	return true
}

func (e *tcpEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go e.readLoop(conn)
	}
}

func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	br := bufio.NewReader(conn)
	var hdr [4]byte
	bp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bp)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrame {
			return // corrupt or hostile stream
		}
		if cap(*bp) < int(n) {
			*bp = make([]byte, 0, n)
		}
		buf := (*bp)[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		from, msg, err := protocol.DecodeFrame(buf)
		if err != nil {
			return // a framing error poisons the stream; drop the connection
		}
		e.deliver(from, msg)
	}
}

func (e *tcpEndpoint) Send(to string, msg protocol.Message) error {
	if e.net.node {
		return e.net.nodeSend(e.addr, to, msg)
	}
	c, err := e.dial(to)
	if err != nil {
		return err
	}
	err, broken := e.net.writeFrame(c, e.addr, msg)
	if err != nil {
		if broken {
			// Connection broke mid-stream: forget it so a later send
			// re-dials. Pre-I/O codec errors (a foreign message type, an
			// oversize frame) leave the healthy connection cached — nothing
			// reached the wire, so the stream is not poisoned.
			e.mu.Lock()
			if e.conns[to] == c {
				delete(e.conns, to)
			}
			e.mu.Unlock()
			dropConn(c)
		}
		return fmt.Errorf("transport: send to %q: %w", to, err)
	}
	e.net.count(protocol.KindIndexOf(msg))
	return nil
}

// writeFrame appends one encoded plain frame to a per-endpoint
// connection's batch. On a real clock the batch flushes on the byte bound
// and otherwise arms the flush-deadline timer when it opens; under a
// virtual clock the frame is flushed at once. broken reports whether the
// error (if any) poisoned the connection's byte stream, requiring a
// re-dial; a nil return on a real clock means the frame was accepted into
// the batch, and a failed (possibly timer-driven) flush surfaces as the
// sticky connection error on a later write. Codec errors leave the batch
// (and the stream) intact: nothing of the failed frame remains buffered.
func (t *TCP) writeFrame(c *tcpConn, from string, msg protocol.Message) (err error, broken bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.werr != nil {
		return c.werr, true // a previous (possibly timer-driven) flush failed
	}
	n0 := len(c.wbuf)
	buf := append(c.wbuf, 0, 0, 0, 0) // length prefix placeholder
	buf, err = protocol.AppendFrame(buf, from, msg)
	if err != nil {
		c.wbuf = buf[:n0] // keep any growth; drop the partial frame
		return err, false
	}
	if len(buf)-n0-4 > maxFrame {
		c.wbuf = buf[:n0]
		return fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte bound", protocol.ErrCodec, len(buf)-n0-4, maxFrame), false
	}
	binary.BigEndian.PutUint32(buf[n0:n0+4], uint32(len(buf)-n0-4))
	c.wbuf = buf
	if !t.coalesce || len(c.wbuf) >= coalesceBytes {
		err := c.flushLocked()
		return err, err != nil
	}
	if n0 == 0 {
		// The batch just opened: arm the flush deadline.
		c.armTimerLocked()
	}
	return nil, false
}

// writeNodeBatched appends one node-qualified message to the connection's
// open batched frame (opening one as needed), subject to the peer's credit
// window: out of credits, the encoded entry is parked in the bounded
// pending buffer instead, and with that full the send fails with
// ErrPeerStalled — the typed bounded-backpressure surface for a stalled
// peer. Codec errors leave the batch and the stream intact.
func (t *TCP) writeNodeBatched(c *tcpConn, nodeTo, from string, msg protocol.Message) (err error, broken bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.werr != nil {
		return c.werr, true // a previous (possibly timer-driven) flush failed
	}
	if c.pendCnt > 0 || (c.creditLive && c.credits <= 0) {
		// Credit-limited: park the encoded entry behind everything already
		// pending (FIFO), bounded to one window of messages.
		if c.pendCnt >= c.pendMax {
			t.countCreditStall()
			return ErrPeerStalled, false
		}
		p0 := len(c.pend)
		c.pend, err = protocol.AppendNodeBatchEntry(c.pend, nodeTo, from, msg)
		if err != nil {
			return err, false
		}
		if sz := len(c.pend) - p0 - nodeBatchEntrySize; sz > maxFrame {
			c.pend = c.pend[:p0]
			return fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte bound", protocol.ErrCodec, sz, maxFrame), false
		}
		c.pendCnt++
		return nil, false
	}
	opened := len(c.wbuf) == 0
	if opened {
		c.wbuf = protocol.AppendNodeBatchHeader(append(c.wbuf, 0, 0, 0, 0))
		c.batching = true
	}
	n0 := len(c.wbuf)
	c.wbuf, err = protocol.AppendNodeBatchEntry(c.wbuf, nodeTo, from, msg)
	if err != nil {
		if opened {
			c.wbuf = c.wbuf[:0] // nothing else buffered; close the empty batch
			c.batching = false
		}
		return err, false
	}
	if len(c.wbuf)-n0-nodeBatchEntrySize > maxFrame {
		sz := len(c.wbuf) - n0 - nodeBatchEntrySize
		c.wbuf = c.wbuf[:n0]
		if opened {
			c.wbuf = c.wbuf[:0]
			c.batching = false
		}
		return fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte bound", protocol.ErrCodec, sz, maxFrame), false
	}
	if c.creditLive {
		c.credits--
	}
	if len(c.wbuf) >= coalesceBytes {
		err := c.flushLocked()
		return err, err != nil
	}
	if opened {
		c.armTimerLocked()
	}
	return nil, false
}

func (e *tcpEndpoint) dial(to string) (*tcpConn, error) {
	e.net.mu.RLock()
	hostport, ok := e.net.book[to]
	e.net.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAddr, to)
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := e.conns[to]; ok {
		if c.hostport == hostport {
			e.mu.Unlock()
			return c, nil
		}
		// The logical address re-bound to a new physical address since this
		// connection was dialled: drop the stale connection and re-dial.
		delete(e.conns, to)
		dropConn(c)
	}
	e.mu.Unlock()

	conn, err := net.DialTimeout("tcp", hostport, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q: %w", to, err)
	}
	c := &tcpConn{conn: conn, hostport: hostport}

	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, ok := e.conns[to]; ok && prev.hostport == hostport {
		_ = conn.Close() // lost the race; reuse the established one
		return prev, nil
	} else if ok {
		dropConn(prev) // racing dial to a stale incarnation
	}
	e.conns[to] = c
	return c, nil
}

func (e *tcpEndpoint) Recv() (Delivery, bool) {
	return unboxDelivery(e.queue.Get())
}

func (e *tcpEndpoint) RecvTimeout(timeout time.Duration) (Delivery, bool) {
	return unboxDelivery(e.queue.GetTimeout(timeout))
}

func (e *tcpEndpoint) Pending() int { return e.queue.Len() }

func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := make([]*tcpConn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()

	var err error
	if e.ln != nil { // node-mode endpoints share the node listener
		err = e.ln.Close()
	}
	for _, c := range conns {
		// Flush any coalesced tail so frames sent just before Close still
		// reach the peer, then stop the flush timer and the connection.
		closeConn(c)
	}
	// Release the address before closing the queue: a receiver that sees
	// the closed queue (the mux pump, which then forgets the address) may
	// bind the address again at once, and must not find it still taken.
	e.net.mu.Lock()
	if e.net.eps[e.addr] == e {
		delete(e.net.eps, e.addr)
	}
	e.net.mu.Unlock()
	e.queue.Close()
	return err
}
