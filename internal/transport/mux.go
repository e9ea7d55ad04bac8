package transport

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"caaction/internal/protocol"
	"caaction/internal/vclock"
)

// Bounds on the per-shared-endpoint bookkeeping a Mux keeps for traffic that
// cannot be delivered right now. Both exist so a long-lived system's memory
// stays bounded no matter how many action instances pass through it.
const (
	// muxDeadCap bounds the completed-instance set remembered per shared
	// endpoint so that late traffic for a finished instance is dropped
	// instead of retained forever. Once exceeded, the oldest completions are
	// forgotten — a message for one of those would be re-retained (and then
	// evicted by muxRetainCap), never mis-delivered.
	muxDeadCap = 4096
	// muxRetainCap bounds the deliveries buffered for instances that have
	// not opened yet (a fast peer's message racing the local Open).
	muxRetainCap = 1024
)

// muxShardCount is the stripe count for the address table: Open/Close/forget
// of unrelated thread addresses take unrelated locks, so thousands of
// concurrent instance lifecycles stop serialising on one mutex. Power of two
// so the hash folds with a mask.
const muxShardCount = 32

// Mux multiplexes many concurrent action instances over one shared transport
// endpoint per thread address — the demultiplexing layer of the concurrent
// multi-action runtime.
//
// Open(instance, thread) hands out a virtual Endpoint for one (action
// instance, participating thread) pair. All virtual endpoints of a thread
// address share a single underlying Network endpoint bound to that address:
// sends go straight to the shared endpoint, and a per-address pump goroutine
// routes every inbound delivery to the virtual endpoint of the instance
// named by the message's action-identifier tag (protocol.InstanceOf).
// Messages for instances that have not opened yet are retained (bounded)
// until they open; messages for completed instances are dropped.
//
// The address table is lock-striped into muxShardCount shards keyed by
// thread address, and the retained/dead garbage collection is per shared
// endpoint (hence per shard): concurrent Open/route/Close traffic across
// addresses never contends on a global lock.
//
// Garbage collection: closing a virtual endpoint marks its instance
// complete, and closing the last instance of a thread address tears the
// shared endpoint and its pump down, releasing the address for re-binding.
// The pump is started with Clock.Go, so under the virtual clock it
// participates in time advancement like every other runtime goroutine and
// whole muxed simulations stay deterministic.
type Mux struct {
	clock vclock.Clock
	net   Network
	// inline gates the run-to-completion delivery lane (see inline.go):
	// true only on real-time clocks with the lane enabled, so virtual-clock
	// simulations keep their deterministic queue-and-pump scheduling.
	inline bool

	closed atomic.Bool
	shards [muxShardCount]muxShard

	// epPool recycles virtual endpoints together with their receive queues
	// (see RecycleEndpoint). Per-Mux, never global: a pooled queue belongs
	// to this Mux's clock.
	epPool sync.Pool
}

type muxShard struct {
	mu     sync.Mutex
	shared map[string]*muxShared
}

// muxSeed keys the shard hash; process-wide is fine (all Muxes may share the
// same stripe layout).
var muxSeed = maphash.MakeSeed()

func (m *Mux) shardFor(thread string) *muxShard {
	return &m.shards[maphash.String(muxSeed, thread)&(muxShardCount-1)]
}

// MuxOptions tunes a demultiplexer; the zero value gives the defaults.
type MuxOptions struct {
	// NoInline disables the run-to-completion delivery lane even on
	// real-time clocks, keeping every endpoint on the queue-and-pump path.
	NoInline bool
}

// NewMux returns a demultiplexer over the given network. The clock must be
// the same one driving the rest of the simulation or deployment.
func NewMux(clock vclock.Clock, net Network) *Mux {
	return NewMuxOpts(clock, net, MuxOptions{})
}

// NewMuxOpts is NewMux with explicit tuning options.
func NewMuxOpts(clock vclock.Clock, net Network, o MuxOptions) *Mux {
	if clock == nil || net == nil {
		panic("transport: NewMux requires a clock and a network")
	}
	m := &Mux{
		clock:  clock,
		net:    net,
		inline: !o.NoInline && vclock.IsReal(clock),
	}
	for i := range m.shards {
		m.shards[i].shared = make(map[string]*muxShared)
	}
	return m
}

// Open attaches the named action instance to a thread address, lazily
// binding the address's shared endpoint (and starting its pump) on first
// use. The returned Endpoint reports Addr() == thread, so runtime code is
// oblivious to the multiplexing. Opening the same (instance, thread) pair
// twice while the first is still open fails with ErrDuplicateAddr.
func (m *Mux) Open(instance, thread string) (Endpoint, error) {
	if instance == "" {
		return nil, fmt.Errorf("transport: mux: empty instance tag")
	}
	_ = protocol.TagInstance(instance, "") // panics on reserved characters
	shard := m.shardFor(thread)
	for {
		shard.mu.Lock()
		if m.closed.Load() {
			// Checked under the shard lock, so an Open and a Close racing on
			// this shard serialise: either the bind below lands before the
			// closing sweep (which then tears it down) or the Open fails.
			shard.mu.Unlock()
			return nil, ErrClosed
		}
		sh, ok := shard.shared[thread]
		if !ok {
			real, err := m.net.Endpoint(thread)
			if err != nil {
				shard.mu.Unlock()
				return nil, fmt.Errorf("transport: mux: bind %q: %w", thread, err)
			}
			sh = &muxShared{
				mux:      m,
				addr:     thread,
				real:     real,
				open:     make(map[string]*muxEndpoint),
				dead:     make(map[string]struct{}),
				retained: make(map[string][]Delivery),
			}
			// The pump is infrastructure: its blocking receive must not count
			// toward the virtual clock's deadlock detection.
			if dm, ok := real.(interface{ MarkDaemon() }); ok {
				dm.MarkDaemon()
			}
			if m.inline {
				// Sender-side delivery: a transport that supports sinks (the
				// in-process sim) hands fast-path sends straight to dispatch
				// on the sender's goroutine, skipping the shared queue and
				// the pump wakeup. The pump keeps running for traffic that
				// takes the transport's locked path.
				if sk, ok := real.(interface{ SetSink(func(Delivery)) }); ok {
					sk.SetSink(sh.dispatch)
				}
			}
			shard.shared[thread] = sh
			m.clock.Go(sh.pump)
		}
		shard.mu.Unlock()

		sh.mu.Lock()
		if sh.closed {
			// The shared endpoint was torn down between our lookup and this
			// lock (its last instance closed, or its address crashed); retry
			// so a fresh one is bound. Yield first: the closer still has to
			// release the underlying endpoint and forget the table entry, and
			// on a busy (or single-core) scheduler a tight retry loop would
			// starve it — this was a measurable busy-spin against racing
			// shared-endpoint teardown at high instance churn.
			sh.mu.Unlock()
			runtime.Gosched()
			continue
		}
		if _, dup := sh.open[instance]; dup {
			sh.mu.Unlock()
			return nil, fmt.Errorf("%w: instance %q on %q", ErrDuplicateAddr, instance, thread)
		}
		ep, _ := m.epPool.Get().(*muxEndpoint)
		if ep == nil {
			ep = &muxEndpoint{mux: m, queue: m.clock.NewQueue()}
		}
		ep.shared = sh
		ep.instance = instance
		sh.open[instance] = ep
		// A reused tag may still sit in the dead set from its previous
		// incarnation; routing prefers the open table, so delivery is
		// unaffected while open, and the marker (kept, to keep deadOrder
		// duplicate-free) resumes dropping late traffic after the re-close.
		if pend := sh.retained[instance]; len(pend) > 0 {
			delete(sh.retained, instance)
			sh.retainedLen -= len(pend)
			for _, d := range pend {
				ep.queue.Put(borrowDelivery(d.From, d.Msg, d.Corrupt))
			}
		}
		sh.mu.Unlock()
		return ep, nil
	}
}

// Close tears every shared endpoint down. The underlying network is NOT
// closed — the Mux does not own it.
func (m *Mux) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	var all []*muxShared
	for i := range m.shards {
		shard := &m.shards[i]
		shard.mu.Lock()
		for _, sh := range shard.shared {
			all = append(all, sh)
		}
		shard.shared = make(map[string]*muxShared)
		shard.mu.Unlock()
	}
	for _, sh := range all {
		sh.teardown()
	}
	return nil
}

// forget removes a torn-down shared endpoint from its shard so a later Open
// re-binds the address.
func (m *Mux) forget(sh *muxShared) {
	shard := m.shardFor(sh.addr)
	shard.mu.Lock()
	if shard.shared[sh.addr] == sh {
		delete(shard.shared, sh.addr)
	}
	shard.mu.Unlock()
}

// RecycleEndpoint scrubs a virtual endpoint handed out by Mux.Open and
// returns it — together with its receive queue — to its Mux's pool, so the
// next Open reuses both allocations. Only the endpoint's exclusive owner
// may call it, after Close has completed on it, and must drop every
// reference: pool hygiene requires that a recycled endpoint has no
// remaining referent (no pump — Close deregistered it — and no other
// goroutine holding it, e.g. a StartAction cancellation watcher). Any
// deliveries still buffered for the completed instance are drained and
// their boxes released. A no-op for non-mux endpoints and for endpoints
// still routed (never closed).
func RecycleEndpoint(ep Endpoint) {
	me, ok := ep.(*muxEndpoint)
	if !ok {
		return
	}
	sh := me.shared
	sh.mu.Lock()
	stillOpen := sh.open[me.instance] == me
	sh.mu.Unlock()
	if stillOpen {
		return
	}
	for {
		x, ok := me.queue.TryGet()
		if !ok {
			break
		}
		releaseDelivery(x.(*Delivery))
	}
	me.recycleInline()
	mux := me.mux
	me.shared = nil
	me.instance = ""
	me.queue.Reset()
	mux.epPool.Put(me)
}

// muxShared is one thread address's attachment: the real endpoint, its pump,
// and the instance routing table.
type muxShared struct {
	mux  *Mux
	addr string
	real Endpoint

	mu          sync.Mutex
	open        map[string]*muxEndpoint
	dead        map[string]struct{}
	deadOrder   []string
	retained    map[string][]Delivery
	retainedLen int
	closed      bool
}

// pump routes inbound deliveries to per-instance virtual endpoints until the
// real endpoint closes (teardown or crash-stop).
func (sh *muxShared) pump() {
	for {
		d, ok := sh.real.Recv()
		if !ok {
			sh.abandoned()
			return
		}
		sh.dispatch(d)
	}
}

// dispatch routes one delivery to its instance's endpoint. Callers are the
// shared endpoint's pump goroutine and — when the sender-side sink is
// installed — any sending goroutine, so the whole body is serialised on
// sh.mu. Holding sh.mu across an inline-executed step also pins the
// endpoint open (Close removes it from sh.open under this lock), so the
// step can never race endpoint recycling; the step's deferred sends and the
// owner wakeup run after the lock is dropped.
func (sh *muxShared) dispatch(d Delivery) {
	inst := protocol.InstanceOf(protocol.ActionOf(d.Msg))
	sh.mu.Lock()
	if ep, ok := sh.open[inst]; ok {
		var post inlinePost
		delivered := ep.deliverLocked(d, &post)
		sh.mu.Unlock()
		if delivered && (post.wake || post.outs != nil) {
			ep.finishInline(sh, &post)
		}
		return
	}
	defer sh.mu.Unlock()
	if _, done := sh.dead[inst]; done || inst == "" {
		return // late traffic for a completed instance, or an untagged stray
	}
	if sh.closed {
		// The shard is dying (its last instance closed while this frame was
		// in flight): anything retained here would die with it. Hand the
		// frame back to the transport, which re-retains it for the
		// address's next bind — the next instance on this thread gets it
		// replayed at Open. Reinjecting under sh.mu keeps it ordered after
		// the retained set Close handed back and before later backlog.
		sh.reinject(d)
		return
	}
	if sh.retainedLen >= muxRetainCap {
		return // bounded: a flood for never-opening instances is dropped
	}
	sh.retained[inst] = append(sh.retained[inst], d)
	sh.retainedLen++
}

// reinject hands one delivery back to the transport when this shard can no
// longer retain it (see dispatch and muxEndpoint.Close). Callers hold
// sh.mu; a transport that supports re-injection takes its own network lock
// under it — shard lock before network lock is the sanctioned order, never
// the reverse. Transports without re-injection (the in-process sim, plain
// per-endpoint TCP) keep the old semantics: the frame is dropped.
func (sh *muxShared) reinject(d Delivery) {
	if rj, ok := sh.real.(interface{ Reinject(Delivery) bool }); ok {
		rj.Reinject(d)
	}
}

// abandoned propagates a dead real endpoint (crash-stop, network close) to
// every open instance: their queues close, so blocked receivers observe the
// stop exactly as they would on an unmuxed endpoint.
//
// The queues are closed while sh.mu is held (queue operations never take
// sh.mu, so the nesting is safe): a snapshot closed after dropping the lock
// could race a concurrent instance Close + RecycleEndpoint and land the
// stray Close on a queue already scrubbed into the endpoint pool — killing
// an unrelated later instance's mailbox.
func (sh *muxShared) abandoned() {
	sh.mu.Lock()
	if sh.closed {
		// Ordinary last-instance shutdown (muxEndpoint.Close marked the
		// shard closed and closed the real endpoint): the pump has now
		// drained every pre-close frame through dispatch, so releasing the
		// address is safe — and is deferred to here precisely so a
		// successor bind cannot race ahead of that backlog.
		sh.mu.Unlock()
		sh.mux.forget(sh)
		return
	}
	sh.closed = true
	var wake []*muxEndpoint
	for _, ep := range sh.open {
		ep.queue.Close()
		if ep.stopInline() {
			wake = append(wake, ep)
		}
	}
	sh.mu.Unlock()
	for _, ep := range wake {
		ep.inl.wake <- struct{}{}
	}
	sh.mux.forget(sh)
}

// stopInline closes an endpoint's inline lane, reporting whether the caller
// must wake a parked owner once sh.mu is released.
func (e *muxEndpoint) stopInline() bool {
	e.imu.Lock()
	wake := e.closeInlineLocked()
	e.imu.Unlock()
	return wake
}

// teardown closes the real endpoint (stopping the pump) and every open
// instance queue; used by Mux.Close. Instance queues close under sh.mu for
// the same recycle-race reason as abandoned.
func (sh *muxShared) teardown() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	var wake []*muxEndpoint
	for _, ep := range sh.open {
		ep.queue.Close()
		if ep.stopInline() {
			wake = append(wake, ep)
		}
	}
	sh.mu.Unlock()
	for _, ep := range wake {
		ep.inl.wake <- struct{}{}
	}
	_ = sh.real.Close()
}

// markDeadLocked records a completed instance, bounded by muxDeadCap. The
// dead set and deadOrder stay duplicate-free even under tag reuse, so
// eviction accounting never removes a marker out of turn.
func (sh *muxShared) markDeadLocked(instance string) {
	if _, dup := sh.dead[instance]; !dup {
		sh.dead[instance] = struct{}{}
		sh.deadOrder = append(sh.deadOrder, instance)
		if len(sh.deadOrder) > muxDeadCap {
			evict := sh.deadOrder[0]
			sh.deadOrder = sh.deadOrder[1:]
			delete(sh.dead, evict)
		}
	}
	if pend := sh.retained[instance]; pend != nil {
		delete(sh.retained, instance)
		sh.retainedLen -= len(pend)
	}
}

// muxEndpoint is one (action instance, thread) virtual endpoint. Besides the
// receive queue (virtual clocks, and real-time endpoints before a thread
// adopts them), it carries the inline-lane state: imu guards inl, and is
// only ever taken after sh.mu (never the reverse — inline-routed steps
// defer their sends precisely so no send happens under imu).
type muxEndpoint struct {
	mux      *Mux
	shared   *muxShared
	instance string
	queue    *vclock.Queue

	imu sync.Mutex
	inl inlineState
}

var (
	_ Endpoint       = (*muxEndpoint)(nil)
	_ InlineEndpoint = (*muxEndpoint)(nil)
)

// Addr returns the thread address, not the instance tag: runtime code
// addresses peers by thread, and the instance travels in the message's
// action identifier.
func (e *muxEndpoint) Addr() string { return e.shared.addr }

func (e *muxEndpoint) Send(to string, msg protocol.Message) error {
	return e.shared.real.Send(to, msg)
}

func (e *muxEndpoint) Recv() (Delivery, bool) {
	return unboxDelivery(e.queue.Get())
}

func (e *muxEndpoint) RecvTimeout(timeout time.Duration) (Delivery, bool) {
	return unboxDelivery(e.queue.GetTimeout(timeout))
}

func (e *muxEndpoint) Pending() int { return e.queue.Len() }

// Close completes this instance on this thread address: the instance is
// garbage-collected from the routing table (late traffic for it is dropped),
// and closing the address's last instance tears the shared endpoint down,
// stopping its pump and freeing the address.
func (e *muxEndpoint) Close() error {
	sh := e.shared
	sh.mu.Lock()
	if sh.open[e.instance] != e {
		sh.mu.Unlock()
		return nil // already closed, or superseded by a tag-reuse reopen
	}
	delete(sh.open, e.instance)
	sh.markDeadLocked(e.instance)
	e.queue.Close()
	// Close the inline lane too. The owner closes its own endpoint only
	// while unparked, but a cancellation watcher may close it out from
	// under a parked thread — that thread must wake and observe the stop.
	wake := e.stopInline()
	last := len(sh.open) == 0 && !sh.closed
	if last {
		sh.closed = true
		// Frames retained for instances that never opened here must not die
		// with the shard: the usual reason they exist is a fast peer racing
		// this thread's next action start, and losing them wedges that
		// action's entry barrier until its deadline. Hand them back to the
		// transport (under sh.mu, so concurrent dispatches of younger
		// backlog frames order after them) for the address's next bind.
		for inst, pend := range sh.retained {
			delete(sh.retained, inst)
			sh.retainedLen -= len(pend)
			for _, d := range pend {
				sh.reinject(d)
			}
		}
	}
	sh.mu.Unlock()
	if wake {
		e.inl.wake <- struct{}{}
	}
	if last {
		// Close the real endpoint BEFORE the shared entry is forgotten: a
		// concurrent Open of this address then either still finds the entry
		// (sees sh.closed, retries until forget runs) or re-binds after the
		// address is genuinely free — never while the old endpoint is still
		// bound, which would fail the bind with ErrDuplicateAddr. The
		// forget itself is the pump's: closing the real endpoint stops its
		// receive loop once the pre-close backlog has drained through
		// dispatch (which reinjects it, the shard being closed), and only
		// then does abandoned release the address — so a successor can
		// never bind ahead of frames that arrived before it.
		return sh.real.Close()
	}
	return nil
}
