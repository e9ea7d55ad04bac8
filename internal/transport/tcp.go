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
// Every connection speaks one wire, the node wire: batched frames whose
// entries name their destination thread address (internal/protocol's
// AppendNodeBatchEntry/DecodeNodeBatch), under per-connection credit flow
// control. The accepting side advertises a window of messages and grants
// more as it consumes them; a sender that exhausts the window parks up to
// one more window of encoded entries and then fails sends with
// ErrPeerStalled until the peer drains. Encode buffers are reused per
// connection, so a steady-state send performs no codec allocations.
//
// On a real clock, entries are write-coalesced per connection: an entry
// joins the connection's open batch, which is flushed once it holds
// coalesceBytes or when the coalesceDelay deadline (a wall-clock timer armed
// when the batch opens) fires — so a burst of messages to one peer costs
// one syscall instead of one per message, at a bounded added latency of
// coalesceDelay. Batches keep per-connection FIFO order, write errors are
// sticky and surface on the next Send over the connection (which drops it,
// so the send after re-dials), and Close flushes. Under a virtual clock
// each entry is flushed as soon as it is encoded: a wall-clock flush timer
// could fire outside the deterministic schedule.
//
// A destination thread address resolves to a host:port through one
// resolver. By default that is the address book: every endpoint created in
// this process listens on its own socket (loopback unless SetListenAddr
// says otherwise) and enters itself there, and SetPeer adds endpoints of
// other processes. Each sending endpoint keeps its own connection per
// destination host:port. Construct with NewTCP.
//
// # Node mode
//
// ConfigureNode makes the network one node of a cluster: the process
// listens once, endpoints get no socket of their own, the cluster's
// directory replaces the address book as the resolver, and all local
// endpoints share one connection per destination node. Sends between two
// threads placed on this node bypass the wire. Frames for locally-placed
// threads whose endpoint has not bound yet (a fast peer racing the local
// action start) are retained — bounded — and flushed when the endpoint
// binds; frames for addresses the node does not host are dropped.
type TCP struct {
	clock vclock.Clock

	// coalesce enables per-connection write batching; set when the clock is
	// wall-clock-backed (vclock.Real's RealTime marker). Node mode requires
	// it.
	coalesce bool

	// metrics, when non-nil, counts sends as "msg.<Kind>" plus "msg.total",
	// and wire events as "tcp.*", through interned counters (see inc).
	metrics      *trace.Metrics
	counters     [protocol.NumKinds]atomic.Pointer[trace.Counter]
	total        atomic.Pointer[trace.Counter]
	batchFrames  atomic.Pointer[trace.Counter] // flushed batches
	creditStalls atomic.Pointer[trace.Counter] // sends refused by ErrPeerStalled
	reinjected   atomic.Pointer[trace.Counter] // deliveries re-retained by Reinject

	// mu is read-mostly on the send hot path (resolution and the connection
	// lookup), so readers take the shared lock.
	mu     sync.RWMutex
	listen string            // host:port endpoint listeners bind to; loopback default
	book   map[string]string // logical address -> host:port
	eps    map[string]*tcpEndpoint
	closed bool

	// window is the per-connection credit window in messages; like resolve
	// and local, it is written before traffic flows.
	window int

	// resolve maps a destination thread address to the host:port serving
	// it: ListenAddr (the address book) by default, the cluster directory
	// in node mode.
	resolve func(addr string) (string, bool)

	// conns holds the outbound connections; inbound the accepted ones, each
	// with the endpoint whose listener accepted it (nil for the node
	// listener), so closing that endpoint severs them.
	conns   map[connKey]*tcpConn
	inbound map[net.Conn]*tcpEndpoint

	// Node-mode state (ConfigureNode).
	nodeLn      net.Listener
	local       func(addr string) bool // thread placed on this node?
	retained    map[string][]Delivery  // local threads not yet bound
	retainedLen int
}

// connKey names one outbound connection: the destination host:port and,
// for an endpoint with its own listener, the sending endpoint's address.
// Node-mode endpoints share their node's connections (from is empty).
type connKey struct{ from, hostport string }

// ErrPeerStalled reports that a destination's credit window and the bounded
// pending buffer behind it are both exhausted: the peer granted credits once
// but has stopped consuming, so accepting more traffic for it would buffer
// without bound. The connection stays healthy — sends resume as soon as the
// peer drains and grants again.
var ErrPeerStalled = fmt.Errorf("transport: peer stalled (credit window exhausted)")

var _ Network = (*TCP)(nil)

// maxFrame bounds one encoded message (1 MiB): a batch entry beyond it is
// refused at encode time rather than put on the wire.
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
	// defaultPeerWindow is the per-connection credit window in messages:
	// the most a sender may have on the wire past the peer's last grant.
	// The pending buffer behind an exhausted window holds the same again,
	// so a stalled peer pins at most 2×window encoded messages per
	// connection.
	defaultPeerWindow = 4096
	// maxNodeBatch bounds one batched frame on the wire: at most one
	// coalesce window of accumulated entries plus one maximum-size frame
	// appended just before the size-driven flush (plus headers). A length
	// prefix beyond it marks a corrupt or hostile stream and closes the
	// connection instead of attempting the allocation.
	maxNodeBatch = maxFrame + coalesceBytes + 64
	// grantWriteTimeout bounds a credit-grant write on an inbound
	// connection. A peer that does not read its grants absorbs them into
	// its socket buffer; if even that backs up, granting stops for that
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

// NewTCP returns a TCP network speaking the node wire. The clock is used
// only for receive queues and timeouts; it should be a real clock in
// production.
func NewTCP(clock vclock.Clock) *TCP {
	protocol.RegisterGob() // App payload fallbacks still ride gob
	_, real := clock.(interface{ RealTime() })
	t := &TCP{
		clock:    clock,
		coalesce: real,
		window:   defaultPeerWindow,
		book:     make(map[string]string),
		eps:      make(map[string]*tcpEndpoint),
		conns:    make(map[connKey]*tcpConn),
		inbound:  make(map[net.Conn]*tcpEndpoint),
	}
	t.resolve = t.ListenAddr
	return t
}

// SetPeerWindow sets the per-connection credit window in messages (default
// 4096). The window is advertised to each dialling peer on the wire; a
// sender that exhausts it buffers up to one more window and then fails
// sends with ErrPeerStalled until the peer drains. Non-positive values are
// ignored. Must be called before endpoints are created.
func (t *TCP) SetPeerWindow(n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.window = n
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

// inc adds one to the counter interned in slot, interning name on first
// use; without a metrics set it costs one predictable branch.
func (t *TCP) inc(slot *atomic.Pointer[trace.Counter], name string) {
	m := t.metrics
	if m == nil {
		return
	}
	c := slot.Load()
	if c == nil {
		c = m.Counter(name)
		slot.Store(c)
	}
	c.Add(1)
}

// count records one sent message of the given kind.
func (t *TCP) count(kind protocol.Kind) {
	if t.metrics == nil {
		return
	}
	if kind.Valid() {
		t.inc(&t.counters[kind], protocol.MetricNames[kind])
	}
	t.inc(&t.total, "msg.total")
}

// nodeRetainCap bounds the deliveries a node retains for locally-placed
// threads whose endpoints have not bound yet (a fast peer's frame racing the
// local action start). Once full, further early frames are dropped — the
// same bounded-buffer stance as the Mux's retained set.
const nodeRetainCap = 4096

// ConfigureNode switches the network into cluster node mode (see the type
// docs): one shared listener for the whole process, resolver-based
// thread→node routing, and bounded retention for early frames to
// locally-placed threads. local reports whether a thread address is placed
// on this node; resolve maps a thread address to the host:port of the node
// currently hosting it (consulted per send, so a peer that restarts on a
// new port is re-dialled as soon as the resolver learns the new address).
// Node mode needs a real clock: its batches flush on a wall-clock deadline.
// Must be called before any Endpoint is created; returns the bound listen
// address for exchange with peers.
func (t *TCP) ConfigureNode(listen string, local func(string) bool, resolve func(string) (string, bool)) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return "", ErrClosed
	}
	if t.nodeLn != nil {
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
	t.nodeLn = ln
	t.local = local
	t.resolve = resolve
	t.retained = make(map[string][]Delivery)
	go t.nodeAcceptLoop(ln, nil)
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

// ListenAddr reports the host:port the address book holds for a logical
// address: a local endpoint's listener, or a peer recorded by SetPeer. It
// is the resolver outside node mode.
func (t *TCP) ListenAddr(addr string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	hp, ok := t.book[addr]
	return hp, ok
}

// Endpoint implements Network. Outside node mode the endpoint listens on a
// socket of its own and enters it in the address book; in node mode it
// shares the node listener, and any frames retained for its address are
// flushed into its receive queue before the bind is visible.
func (t *TCP) Endpoint(addr string) (Endpoint, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if _, ok := t.eps[addr]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateAddr, addr)
	}
	ep := &tcpEndpoint{net: t, addr: addr, queue: t.clock.NewQueue()}
	if t.nodeLn == nil {
		listen := t.listen
		if listen == "" {
			listen = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		ep.ln = ln
		t.book[addr] = ln.Addr().String()
		go t.nodeAcceptLoop(ln, ep)
	}
	t.eps[addr] = ep
	if pend := t.retained[addr]; len(pend) > 0 {
		delete(t.retained, addr)
		t.retainedLen -= len(pend)
		for i := range pend {
			ep.queue.Put(borrowDelivery(pend[i].From, &pend[i].Msg, pend[i].Corrupt))
		}
	}
	return ep, nil
}

// Close implements Network.
func (t *TCP) Close() error {
	t.mu.Lock()
	eps := make([]*tcpEndpoint, 0, len(t.eps))
	for _, ep := range t.eps {
		eps = append(eps, ep)
	}
	conns := make([]*tcpConn, 0, len(t.conns))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	clear(t.conns)
	inbound := make([]net.Conn, 0, len(t.inbound))
	for conn := range t.inbound {
		inbound = append(inbound, conn)
	}
	clear(t.inbound)
	t.closed = true
	nodeLn := t.nodeLn
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

// forget abandons a broken connection: it leaves the connection map, so the
// next send re-dials, its flush timer is stopped (nothing may fire on a dead
// socket after the owner forgot it) and the socket closed, with no flush
// attempt — the stream is already poisoned or its peer gone. Every teardown
// path must stop the timer: closeConn for healthy closes, forget for broken
// ones, or a batch-open timer on a forgotten connection outlives it.
func (t *TCP) forget(c *tcpConn) {
	t.mu.Lock()
	if t.conns[c.key] == c {
		delete(t.conns, c.key)
	}
	t.mu.Unlock()
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
	key  connKey
	// owner backs what a flush needs from the network: the coalescing mode
	// and the batch-frame counter.
	owner *TCP

	// Write state (see the TCP type docs). wbuf is the open batched frame
	// (outer length placeholder + batch header + entries), empty when no
	// batch is open; the flush backfills the outer length. timer is the
	// reused flush-deadline timer, armed whenever a batch opens on a real
	// clock; werr is the sticky error of a failed (possibly timer-driven)
	// flush, surfaced on the next Send so the caller drops the connection.
	wbuf  []byte
	timer *time.Timer
	werr  error

	// Credit flow control. creditLive latches at the peer's first grant;
	// until then sends are not credit-limited. credits is the remaining
	// grant balance; once exhausted, encoded entries accumulate in pend
	// (bounded to pendMax messages, FIFO ahead of new sends) until the next
	// grant splices them into the batch.
	creditLive bool
	credits    int
	pend       []byte
	pendCnt    int
	pendMax    int
}

// flushLocked closes the open batch and writes it in one syscall. c.mu must
// be held.
func (c *tcpConn) flushLocked() error {
	if c.werr != nil {
		return c.werr
	}
	if len(c.wbuf) == 0 {
		return nil
	}
	binary.BigEndian.PutUint32(c.wbuf[:4], uint32(len(c.wbuf)-4))
	c.owner.inc(&c.owner.batchFrames, "tcp.batch_frames")
	_, err := c.conn.Write(c.wbuf)
	if cap(c.wbuf) > coalesceMaxRetain {
		c.wbuf = nil
	} else {
		c.wbuf = c.wbuf[:0]
	}
	c.werr = err
	return err
}

// openLocked opens a batch in the empty write buffer. c.mu must be held.
func (c *tcpConn) openLocked() {
	c.wbuf = protocol.AppendNodeBatchHeader(append(c.wbuf, 0, 0, 0, 0))
}

// scheduleLocked makes sure the open batch gets written: at once under a
// virtual clock, otherwise when the flush deadline fires. The timer is
// created once per connection and reused; a size-driven flush may let it
// fire on an empty (or younger) batch, which is a harmless early flush.
// c.mu must be held.
func (c *tcpConn) scheduleLocked() error {
	if !c.owner.coalesce {
		return c.flushLocked()
	}
	if c.timer == nil {
		c.timer = time.AfterFunc(coalesceDelay, func() {
			c.mu.Lock()
			_ = c.flushLocked() // failure is sticky; the next Send drops the connection
			c.mu.Unlock()
		})
	} else {
		c.timer.Reset(coalesceDelay)
	}
	return nil
}

// nodeAcceptLoop accepts connections on one listener: the node listener
// (owner nil) or an endpoint's own. Accepted connections are tracked in
// inbound so Close can sever them too — peers then observe a shutdown as a
// broken connection rather than a silent black hole, and drop their
// connection to it.
func (t *TCP) nodeAcceptLoop(ln net.Listener, owner *tcpEndpoint) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed || (owner != nil && t.eps[owner.addr] != owner) {
			t.mu.Unlock()
			_ = conn.Close()
			continue
		}
		t.inbound[conn] = owner
		t.mu.Unlock()
		go t.nodeReadLoop(conn)
	}
}

// nodeReadLoop decodes batched frames off one inbound connection and routes
// each entry to the local endpoint bound to its destination address. It
// also runs the receiver half of the credit protocol: it advertises the
// window up front and grants again each time half a window has been
// consumed, writing grants back on the inbound connection (the only writer
// on it, so no lock is needed).
func (t *TCP) nodeReadLoop(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
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
	threshold := max(window/2, 1)
	consumed := 0
	// The connection's name table: the peer's thread, role and exception
	// names repeat on every message, so they are decoded once.
	var names protocol.Names
	deliver := func(to []byte, from string, msg protocol.Message) error {
		// Look the destination up in place (string(to) in the index
		// expression does not allocate); only a miss converts it.
		t.mu.RLock()
		ep := t.eps[string(to)]
		t.mu.RUnlock()
		d := Delivery{From: from, Msg: msg}
		if ep != nil {
			ep.deliver(&d)
		} else {
			t.deliverNode(string(to), &d)
		}
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
			if err := protocol.DecodeNodeBatch(buf, &names, deliver); err != nil {
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

// sendGrant writes one credit grant on an inbound connection under a short
// write deadline; false means granting should stop for this connection (the
// peer is not draining its grant stream) while reading continues.
func sendGrant(conn net.Conn, grant int) bool {
	var scratch [24]byte
	buf := protocol.AppendNodeCredit(scratch[:4], grant)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	_ = conn.SetWriteDeadline(time.Now().Add(grantWriteTimeout))
	_, err := conn.Write(buf)
	_ = conn.SetWriteDeadline(time.Time{})
	return err == nil
}

// creditReadLoop runs on the dialling side of an outbound connection,
// consuming the grant stream the accepting peer writes back. When the
// connection closes — the peer shut it, or this side did — the loop forgets
// it, so the next send re-dials instead of writing into a dead stream.
func (t *TCP) creditReadLoop(c *tcpConn) {
	defer t.forget(c)
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
		c.handleGrant(grant)
	}
}

// handleGrant credits one grant to an outbound connection and splices as
// many pending entries as the new balance allows into the open batch,
// flushing at the byte bound so a large backlog drains in wire-legal
// frames.
func (c *tcpConn) handleGrant(grant int) {
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
			c.openLocked()
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
		_ = c.scheduleLocked()
	}
}

// nodeBatchEntrySize is the fixed per-entry length-slot size of the batch
// wire format (see protocol.AppendNodeBatchEntry).
const nodeBatchEntrySize = 4

// deliverNode hands one frame to the local endpoint bound to the destination
// address, retaining it (bounded) when the destination is a locally-placed
// thread that has not bound yet. Frames for addresses this network does not
// host are dropped — a stale peer routing to the wrong node must not crash
// the right one. Reports whether the frame was delivered or retained.
func (t *TCP) deliverNode(to string, d *Delivery) bool {
	t.mu.RLock()
	ep := t.eps[to]
	t.mu.RUnlock()
	if ep != nil {
		ep.deliver(d)
		return true
	}
	t.mu.Lock()
	if ep = t.eps[to]; ep != nil {
		// The endpoint bound between the fast-path check and this lock; its
		// retained frames (if any) were flushed under the same lock, so
		// delivering now preserves arrival order.
		t.mu.Unlock()
		ep.deliver(d)
		return true
	}
	defer t.mu.Unlock()
	if t.closed || t.local == nil || !t.local(to) || t.retainedLen >= nodeRetainCap {
		return false
	}
	t.retained[to] = append(t.retained[to], *d)
	t.retainedLen++
	return true
}

// dialNode returns the outbound connection for key, dialling on first use
// on behalf of endpoint e. Keys carry the destination's host:port, so a
// re-bound address or a peer restarted on a new port gets a fresh
// connection as soon as the resolver reports the new address; the stale
// one is dropped when its peer closes it or by the next failed write.
func (t *TCP) dialNode(e *tcpEndpoint, key connKey) (*tcpConn, error) {
	t.mu.RLock()
	c, closed := t.conns[key], t.closed
	t.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if c != nil {
		return c, nil
	}
	conn, err := net.DialTimeout("tcp", key.hostport, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", key.hostport, err)
	}
	c = &tcpConn{conn: conn, key: key, owner: t}
	t.mu.Lock()
	c.pendMax = t.window
	if t.closed || (key.from != "" && t.eps[e.addr] != e) {
		// The network, or the sending endpoint whose connections these
		// are, closed while dialling.
		t.mu.Unlock()
		_ = conn.Close()
		return nil, ErrClosed
	}
	if prev := t.conns[key]; prev != nil {
		t.mu.Unlock()
		_ = conn.Close() // lost the race; reuse the established one
		return prev, nil
	}
	t.conns[key] = c
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
}

var _ Endpoint = (*tcpEndpoint)(nil)

func (e *tcpEndpoint) Addr() string { return e.addr }

// MarkDaemon marks receives on this endpoint as virtual-clock daemon waits;
// see vclock.Queue.SetDaemon.
func (e *tcpEndpoint) MarkDaemon() { e.queue.SetDaemon() }

// SetSink installs the synchronous delivery sink the Mux probes for (see
// Mux.bind): with one installed, read loops hand deliveries straight to the
// mux's by-tag route — and from there into the inline lane — skipping the
// shared queue and the pump wakeup. Deliveries that arrived before the switch are
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
			fn(d) // outside dmu: the route may deliver elsewhere
		}
	}
}

// deliver routes one inbound delivery: through the sink when installed,
// into the receive queue otherwise. The double-checked dmu path closes the
// installation race (see SetSink).
func (e *tcpEndpoint) deliver(d *Delivery) {
	if sp := e.sink.Load(); sp != nil {
		(*sp)(*d)
		return
	}
	e.dmu.Lock()
	if sp := e.sink.Load(); sp != nil {
		e.dmu.Unlock()
		(*sp)(*d)
		return
	}
	box := borrowDelivery(d.From, &d.Msg, d.Corrupt)
	ok := e.queue.PutOpen(box)
	e.dmu.Unlock()
	if !ok {
		// The endpoint closed under a deliverer still holding a stale
		// reference; a closed queue drops new arrivals, so hand the frame
		// back to the retention path instead of losing it.
		releaseDelivery(box)
		e.Reinject(*d)
	}
}

// Reinject hands a delivery back to the transport after its original
// destination endpoint closed — the mux calls it (via interface probe) when
// a shared endpoint dies with early frames still retained for instances that
// never opened, and deliver falls back to it when a stale reference races
// Close. A successor already bound to the address gets the frame at once;
// otherwise a node re-retains it for the address's next bind if the thread
// is placed locally, and outside node mode (no retention) it is dropped,
// the semantics of traffic to a closed endpoint. Reports whether the frame
// survived.
//
// Lock order: callers may hold a mux shared endpoint's lock; Reinject takes
// the network lock under it. The reverse order (network lock, then that
// lock) must never occur — deliverNode releases t.mu before ep.deliver for this
// reason.
func (e *tcpEndpoint) Reinject(d Delivery) bool {
	t := e.net
	t.mu.Lock()
	if ep := t.eps[e.addr]; ep != nil && ep != e {
		// A successor already bound (it replayed the retained set before
		// becoming visible); deliver straight to it.
		t.mu.Unlock()
		ep.deliver(&d)
		return true
	}
	defer t.mu.Unlock()
	if t.closed || t.local == nil || !t.local(e.addr) || t.retainedLen >= nodeRetainCap {
		return false
	}
	t.retained[e.addr] = append(t.retained[e.addr], d)
	t.retainedLen++
	t.inc(&t.reinjected, "tcp.reinjected")
	return true
}

// Send routes one message: straight into the destination queue for a
// thread placed on this node, otherwise over the connection to whichever
// host:port the resolver names.
func (e *tcpEndpoint) Send(to string, msg protocol.Message) error {
	t := e.net
	kind := msg.Kind
	if t.local != nil && t.local(to) {
		if !t.deliverNode(to, &Delivery{From: e.addr, Msg: msg}) {
			return fmt.Errorf("transport: send to %q: local retention full", to)
		}
		t.count(kind)
		return nil
	}
	hostport, ok := t.resolve(to)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAddr, to)
	}
	key := connKey{hostport: hostport}
	if e.ln != nil {
		key.from = e.addr
	}
	c, err := t.dialNode(e, key)
	if err != nil {
		return fmt.Errorf("transport: send to %q: %w", to, err)
	}
	if err, broken := t.writeNodeBatched(c, to, e.addr, msg); err != nil {
		if broken {
			// The stream is poisoned: forget it so a later send re-dials.
			// Pre-I/O codec errors (a message of no known kind, an oversize
			// frame) and stalls leave the healthy connection cached.
			t.forget(c)
		}
		return fmt.Errorf("transport: send to %q via %s: %w", to, hostport, err)
	}
	t.count(kind)
	return nil
}

// writeNodeBatched appends one message to the connection's open batched
// frame (opening one as needed), subject to the peer's credit window: out
// of credits, the encoded entry is parked in the bounded pending buffer
// instead, and with that full the send fails with ErrPeerStalled — the
// typed bounded-backpressure surface for a stalled peer. broken reports
// whether the error (if any) poisoned the connection's byte stream; codec
// errors leave the batch and the stream intact.
func (t *TCP) writeNodeBatched(c *tcpConn, to, from string, msg protocol.Message) (err error, broken bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.werr != nil {
		return c.werr, true // a previous (possibly timer-driven) flush failed
	}
	if c.pendCnt > 0 || (c.creditLive && c.credits <= 0) {
		// Credit-limited: park the encoded entry behind everything already
		// pending (FIFO), bounded to one window of messages.
		if c.pendCnt >= c.pendMax {
			t.inc(&t.creditStalls, "tcp.credit_stalls")
			return ErrPeerStalled, false
		}
		p0 := len(c.pend)
		c.pend, err = protocol.AppendNodeBatchEntry(c.pend, to, from, msg)
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
		c.openLocked()
	}
	n0 := len(c.wbuf)
	c.wbuf, err = protocol.AppendNodeBatchEntry(c.wbuf, to, from, msg)
	if err == nil && len(c.wbuf)-n0-nodeBatchEntrySize > maxFrame {
		err = fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte bound", protocol.ErrCodec, len(c.wbuf)-n0-nodeBatchEntrySize, maxFrame)
		c.wbuf = c.wbuf[:n0]
	}
	if err != nil {
		if opened {
			c.wbuf = c.wbuf[:0] // nothing else buffered; close the empty batch
		}
		return err, false
	}
	if c.creditLive {
		c.credits--
	}
	if len(c.wbuf) >= coalesceBytes {
		err = c.flushLocked()
	} else if opened {
		err = c.scheduleLocked()
	}
	return err, err != nil
}

func (e *tcpEndpoint) Recv() (Delivery, bool) {
	return unboxDelivery(e.queue.Get())
}

func (e *tcpEndpoint) RecvTimeout(timeout time.Duration) (Delivery, bool) {
	return unboxDelivery(e.queue.GetTimeout(timeout))
}

func (e *tcpEndpoint) Pending() int { return e.queue.Len() }

// Close releases the endpoint. An endpoint with its own listener also
// flushes and closes its outbound connections (so frames sent just before
// Close still reach their peers), leaves the address book and severs the
// connections its listener accepted, whose senders then drop them.
func (e *tcpEndpoint) Close() error {
	t := e.net
	var conns []*tcpConn
	var inbound []net.Conn
	// Release the address before closing the queue: a receiver that sees
	// the closed queue (the mux pump, which then forgets the address) may
	// bind the address again at once, and must not find it still taken.
	t.mu.Lock()
	if t.eps[e.addr] != e {
		t.mu.Unlock()
		return nil // already closed
	}
	delete(t.eps, e.addr)
	if e.ln != nil {
		if t.book[e.addr] == e.ln.Addr().String() {
			delete(t.book, e.addr)
		}
		for k, c := range t.conns {
			if k.from == e.addr {
				delete(t.conns, k)
				conns = append(conns, c)
			}
		}
		for conn, owner := range t.inbound {
			if owner == e {
				delete(t.inbound, conn)
				inbound = append(inbound, conn)
			}
		}
	}
	t.mu.Unlock()

	var err error
	if e.ln != nil {
		err = e.ln.Close()
	}
	for _, c := range conns {
		closeConn(c)
	}
	for _, conn := range inbound {
		_ = conn.Close()
	}
	e.queue.Close()
	return err
}
