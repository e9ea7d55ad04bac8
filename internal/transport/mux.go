package transport

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caaction/internal/protocol"
	"caaction/internal/vclock"
)

// Bounds on what a Mux keeps for traffic it cannot deliver right now, so a
// long-lived system's memory stays bounded however many action instances
// pass through it.
const (
	// muxTombCap bounds the completed instances a Mux remembers, so that
	// late traffic for one is dropped instead of retained. Past the bound
	// the oldest are forgotten: a message for one of those is retained like
	// an early one (within muxRetainCap) until its address tears down, never
	// mis-delivered.
	muxTombCap = 4096
	// muxRetainCap bounds the deliveries buffered per thread address for
	// instances that have not opened there yet (a fast peer's message
	// racing the local Open).
	muxRetainCap = 1024
)

// muxShardCount is the stripe count of the address and tag tables, so
// unrelated addresses and instances take unrelated locks. Power of two so
// the hash folds with a mask.
const muxShardCount = 32

// Mux multiplexes many concurrent action instances over one shared transport
// endpoint per thread address — the demultiplexing layer of the concurrent
// multi-action runtime.
//
// Open(instance, thread) hands out a virtual Endpoint for one (action
// instance, participating thread) pair; all virtual endpoints of a thread
// address share one underlying Network endpoint bound to that address. Each
// open endpoint has a handle — the endpoint plus the generation it was
// opened at — kept in its instance's MuxInstance record. A send resolves
// its destination's handle once, from the sender's record, and the
// in-process sim hands the message straight to that endpoint, which drops
// it if the generation no longer matches.
// Traffic that arrives by tag — wire frames, sends to a thread where the
// instance is not open yet — is resolved at the shared endpoint through the
// Mux's tag table and then takes the same handle delivery. Messages for
// instances not yet open at an address are retained there (bounded) until
// they open; messages for completed instances are dropped.
//
// Garbage collection: closing an instance's last endpoint leaves a bounded
// tombstone in the tag table, and closing a thread address's last instance
// tears its shared endpoint and pump down, releasing the address for
// re-binding. The pump is a daemon goroutine of the clock (GoDaemon, where
// the clock has it): under the virtual clock it takes part in time
// advancement like every other runtime goroutine, so muxed simulations stay
// deterministic, but Clock.Wait does not wait for it, so an endpoint left
// open between actions (a long-lived thread) does not hold Wait up.
type Mux struct {
	clock vclock.Clock
	net   Network
	// inline gates the run-to-completion delivery lane (see inline.go):
	// true only on real-time clocks with the lane enabled, so virtual-clock
	// simulations keep their deterministic queue-and-pump scheduling.
	inline bool

	closed atomic.Bool
	shards [muxShardCount]muxShard
	tags   [muxShardCount]tagShard

	// epPool recycles virtual endpoints together with their receive queues
	// (see RecycleEndpoint). Per-Mux, never global: a pooled queue belongs
	// to this Mux's clock.
	epPool sync.Pool
}

// muxShard is one stripe of the address table.
type muxShard struct {
	mu     sync.Mutex
	shared map[string]*muxShared
}

// tagShard is one stripe of the tag table: the records of the instances
// open here by tag, and a ring of the latest completed instances' tags (their
// tombstones), the oldest at next. Only a tag that misses the records scans
// the ring.
type tagShard struct {
	mu    sync.Mutex
	recs  map[string]*MuxInstance
	tombs []string
	next  int
}

// stripe picks a key's table stripe (FNV-1a: keys are short, and inline
// hashing beats a call).
func stripe(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h & (muxShardCount - 1)
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

// NewMuxOpts is NewMux with explicit tuning options. The tables start
// empty and grow on first use.
func NewMuxOpts(clock vclock.Clock, net Network, o MuxOptions) *Mux {
	if clock == nil || net == nil {
		panic("transport: NewMux requires a clock and a network")
	}
	return &Mux{clock: clock, net: net, inline: !o.NoInline && vclock.IsReal(clock)}
}

// Open attaches the named action instance to a thread address, lazily
// binding the address's shared endpoint (and starting its pump) on first
// use. The returned Endpoint reports Addr() == thread, so runtime code is
// oblivious to the multiplexing. Opening the same (instance, thread) pair
// twice while the first is still open fails with ErrDuplicateAddr.
func (m *Mux) Open(instance, thread string) (Endpoint, error) {
	return m.OpenIn(nil, instance, thread)
}

// OpenIn is Open with the instance's record supplied by the caller, who
// opens every local thread of one instance through the same zero-valued
// rec; embedding rec in a per-action object spares the allocation Open
// makes for a new instance. A rec serves one instance, once.
func (m *Mux) OpenIn(rec *MuxInstance, instance, thread string) (Endpoint, error) {
	if instance == "" {
		return nil, fmt.Errorf("transport: mux: empty instance tag")
	}
	if strings.ContainsAny(instance, "!/") {
		_ = protocol.TagInstance(instance, "") // panics on the reserved characters
	}
	for {
		sh, err := m.bind(thread)
		if err != nil {
			return nil, err
		}
		sh.mu.Lock()
		if !sh.closed {
			ep, err := sh.openLocked(rec, instance)
			sh.mu.Unlock()
			if err != nil {
				return nil, err
			}
			return ep, nil
		}
		// The shared endpoint was torn down between the lookup and this
		// lock (its last instance closed, or its address crashed); retry so
		// a fresh one is bound. Yield first: the closer still has to
		// release the underlying endpoint and forget the table entry, and
		// a tight retry loop would starve it on a busy scheduler.
		sh.mu.Unlock()
		runtime.Gosched()
	}
}

// bind returns the shared endpoint of a thread address, binding it and
// starting its pump on first use.
func (m *Mux) bind(thread string) (*muxShared, error) {
	shard := &m.shards[stripe(thread)]
	shard.mu.Lock()
	defer shard.mu.Unlock()
	if m.closed.Load() {
		// Checked under the shard lock, so an Open and a Close racing on
		// this shard serialise: either the bind lands before the closing
		// sweep (which then tears it down) or the Open fails.
		return nil, ErrClosed
	}
	if sh := shard.shared[thread]; sh != nil {
		return sh, nil
	}
	real, err := m.net.Endpoint(thread)
	if err != nil {
		return nil, fmt.Errorf("transport: mux: bind %q: %w", thread, err)
	}
	sh := &muxShared{mux: m, addr: thread, real: real}
	// The pump is infrastructure: its blocking receive must not count
	// toward the virtual clock's deadlock detection.
	if dm, ok := real.(interface{ MarkDaemon() }); ok {
		dm.MarkDaemon()
	}
	if sk, ok := real.(interface{ SetSink(func(Delivery)) }); ok && m.inline {
		// A transport with a sink (the sim's fast path, TCP's read loops)
		// hands traffic that arrives by tag to route on the delivering
		// goroutine, skipping the shared queue and the pump wakeup.
		sk.SetSink(sh.route)
	}
	if shard.shared == nil {
		shard.shared = make(map[string]*muxShared)
	}
	shard.shared[thread] = sh
	if dc, ok := m.clock.(interface{ GoDaemon(func()) }); ok {
		dc.GoDaemon(sh.pump)
	} else {
		m.clock.Go(sh.pump)
	}
	return sh, nil
}

// register enters an instance in the tag table — rec when the caller
// supplies one, otherwise the tag's open record or a new one — and counts
// one more open endpoint in it. Counting under the stripe lock keeps a
// join from racing the instance's last Close into its tombstone.
func (m *Mux) register(rec *MuxInstance, tag string) (*MuxInstance, error) {
	known := rec != nil && rec.tag == tag
	var ts *tagShard
	if known {
		ts = rec.ts
	} else {
		ts = &m.tags[stripe(tag)]
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if !known {
		switch cur := ts.recs[tag]; {
		case cur != nil && rec == nil:
			rec = cur
		case cur != nil:
			return nil, fmt.Errorf("%w: instance %q", ErrDuplicateAddr, tag)
		default:
			if rec == nil {
				rec = new(MuxInstance)
			}
			if ts.recs == nil {
				ts.recs = make(map[string]*MuxInstance)
			}
			rec.tag, rec.ts = tag, ts
			ts.recs[tag] = rec
		}
	}
	rec.open++
	return rec, nil
}

// release uncounts one closed endpoint of rec. The instance's last one
// moves it from the records to the tombstones, overwriting the stripe's
// oldest once the stripe holds its share of muxTombCap.
func (m *Mux) release(rec *MuxInstance) {
	ts := rec.ts
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if rec.open--; rec.open > 0 {
		return
	}
	delete(ts.recs, rec.tag)
	if len(ts.tombs) < muxTombCap/muxShardCount {
		ts.tombs = append(ts.tombs, rec.tag)
		return
	}
	ts.tombs[ts.next] = rec.tag
	ts.next = (ts.next + 1) % len(ts.tombs)
}

// lookup resolves an instance tag to its newest endpoint at addr through
// the tag table; done reports the tombstone of a completed instance.
func (m *Mux) lookup(tag, addr string) (h handle, done bool) {
	ts := &m.tags[stripe(tag)]
	ts.mu.Lock()
	rec := ts.recs[tag]
	if rec == nil {
		for _, t := range ts.tombs {
			if t == tag {
				done = true
				break
			}
		}
	}
	ts.mu.Unlock()
	if rec != nil {
		h = rec.find(addr)
	}
	return h, done
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
		shard.shared = nil
		shard.mu.Unlock()
	}
	for _, sh := range all {
		if sh.shut() {
			_ = sh.real.Close()
		}
	}
	return nil
}

// forget removes a torn-down shared endpoint from its shard so a later Open
// re-binds the address.
func (m *Mux) forget(sh *muxShared) {
	shard := &m.shards[stripe(sh.addr)]
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
// remaining referent (no other goroutine holding it, e.g. a StartAction
// cancellation watcher). Handles resolved for it go stale: recycling bumps
// its generation. Any deliveries still buffered for the completed instance
// are drained and their boxes released. A no-op for non-mux endpoints and
// for endpoints still open.
func RecycleEndpoint(ep Endpoint) {
	me, ok := ep.(*muxEndpoint)
	if !ok {
		return
	}
	sh := me.shared
	sh.mu.Lock()
	open := me.slot != 0
	sh.mu.Unlock()
	if open {
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
	me.queue.Reset()
	me.mux.epPool.Put(me)
}

// handle is a resolved delivery target: one mux endpoint and the generation
// it had when resolved, so a handle that outlives its instance delivers
// nothing. sh is the endpoint's address as of that generation (ep.shared
// is rewritten when the pooled endpoint is reopened).
type handle struct {
	sh  *muxShared
	ep  *muxEndpoint
	gen uint64
}

// deliver hands one delivery to the handle's endpoint.
func (h handle) deliver(from string, msg *protocol.Message, corrupt bool) {
	var post inlinePost
	h.ep.deliver(h.gen, from, msg, corrupt, &post)
	if post.wake || post.outs != nil {
		h.ep.finishInline(&post)
	}
}

// MuxInstance is one action instance's record of its endpoints on a Mux:
// the handle of each (instance, thread) endpoint, in open order. A closed
// endpoint's handle stays, and delivery through it drops on the endpoint's
// closed lane or generation, until a newer endpoint of its address
// replaces it past the inline entries. The first entries sit
// inline, so a record embedded in a per-action object (see OpenIn) costs no
// allocation, and resolving a peer is a lock-free scan over them.
type MuxInstance struct {
	tag  string
	ts   *tagShard // the tag's stripe
	open int       // endpoints not yet closed; under ts.mu
	// mu serialises the Opens that append entries; readers scan the
	// entries below n without it while they all sit in first.
	mu    sync.Mutex
	n     atomic.Int32
	first [4]handle
	more  []handle
}

// entry returns entry i < n; past first, callers hold mu.
func (r *MuxInstance) entry(i int) handle {
	if i < len(r.first) {
		return r.first[i]
	}
	return r.more[i-len(r.first)]
}

// find returns the newest entry at address to, or the zero handle.
func (r *MuxInstance) find(to string) handle {
	n := int(r.n.Load())
	if n > len(r.first) {
		r.mu.Lock()
		defer r.mu.Unlock()
		n = int(r.n.Load()) // an Open may have dropped entries
	}
	for i := n - 1; i >= 0; i-- {
		if h := r.entry(i); h.sh.addr == to {
			return h
		}
	}
	return handle{}
}

// openOn reports whether the instance has an open endpoint on sh. Callers
// hold mu.
func (r *MuxInstance) openOn(sh *muxShared) bool {
	for i := int(r.n.Load()) - 1; i >= 0; i-- {
		if h := r.entry(i); h.sh == sh && h.ep.live(h.gen) {
			return true
		}
	}
	return false
}

// muxShared is one thread address's attachment: the real endpoint, its
// pump, the open endpoints and the deliveries retained for instances not
// open here yet.
type muxShared struct {
	mux  *Mux
	addr string
	real Endpoint

	// mu guards the address's lifecycle: the open endpoints, the retained
	// set and closed. Delivery to an open endpoint never takes it.
	mu          sync.Mutex
	eps         []*muxEndpoint
	retained    map[string][]Delivery
	retainedLen int
	closed      bool
}

// openLocked opens instance on this address. Callers hold sh.mu.
func (sh *muxShared) openLocked(rec *MuxInstance, instance string) (*muxEndpoint, error) {
	m := sh.mux
	rec, err := m.register(rec, instance)
	if err != nil {
		return nil, err
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.openOn(sh) {
		m.release(rec)
		return nil, fmt.Errorf("%w: instance %q on %q", ErrDuplicateAddr, instance, sh.addr)
	}
	ep, _ := m.epPool.Get().(*muxEndpoint)
	if ep == nil {
		ep = &muxEndpoint{mux: m, queue: m.clock.NewQueue()}
	}
	ep.shared, ep.rec = sh, rec
	// Replay what arrived before the instance opened here, then publish the
	// handle: a by-tag delivery racing this Open waits for sh.mu and
	// re-resolves, so nothing overtakes the replay.
	if pend := sh.retained[instance]; len(pend) > 0 {
		delete(sh.retained, instance)
		sh.retainedLen -= len(pend)
		for i := range pend {
			if box := borrowDelivery(pend[i].From, &pend[i].Msg, pend[i].Corrupt); !ep.queue.PutOpen(box) {
				releaseDelivery(box)
			}
		}
	}
	sh.eps = append(sh.eps, ep)
	ep.slot = len(sh.eps)
	if h, n := (handle{sh: sh, ep: ep, gen: ep.gen}), int(rec.n.Load()); n < len(rec.first) {
		rec.first[n] = h
		rec.n.Add(1) // publishes the entry
	} else {
		// find returns an address's newest entry, so an older one past
		// first is never read again: dropping it keeps a long-lived
		// instance whose threads come and go (System.Thread's) bounded.
		rec.more = slices.DeleteFunc(rec.more, func(o handle) bool { return o.sh.addr == sh.addr })
		rec.more = append(rec.more, h)
		rec.n.Store(int32(len(rec.first) + len(rec.more)))
	}
	return ep, nil
}

// send transmits msg for instance rec from this address. On the sim's
// inline configuration the destination is resolved here, once, from rec
// when the message belongs to the sender's instance and the destination
// thread has an endpoint in it; any other message arrives by tag at the
// destination's sink (see Sim.fastSend).
func (sh *muxShared) send(rec *MuxInstance, to string, msg *protocol.Message) error {
	sim, ok := sh.real.(*simEndpoint)
	if !ok || !sh.mux.inline {
		return sh.real.Send(to, *msg)
	}
	var h handle
	if a := msg.Action; len(a) > len(rec.tag) && a[len(rec.tag)] == '!' && a[:len(rec.tag)] == rec.tag {
		h = rec.find(to)
	}
	return sim.net.send(sim, to, msg, h)
}

// pump routes inbound deliveries by tag until the real endpoint closes.
// After an ordinary last-instance shutdown the pump has then drained every
// pre-close frame, so releasing the address is safe (and deferred to here,
// so a successor bind cannot race ahead of that backlog); after a
// crash-stop or network close the open instances are stopped too.
func (sh *muxShared) pump() {
	for {
		d, ok := sh.real.Recv()
		if !ok {
			sh.shut()
			sh.mux.forget(sh)
			return
		}
		sh.route(d)
	}
}

// route delivers one message that arrived by tag: the tag is resolved once
// through the tag table, then the message takes the handle delivery. A
// completed instance's message is dropped. One for an instance not open
// here yet is retained (bounded), under sh.mu, which an Open holds from its
// replay of the retained set to publishing its handle; once the shared
// endpoint is dying it goes back to the transport instead, to be
// re-retained for the address's next bind.
func (sh *muxShared) route(d Delivery) {
	inst := protocol.InstanceOf(d.Msg.Action)
	h, done := sh.mux.lookup(inst, sh.addr)
	if h.ep == nil && !done {
		sh.mu.Lock()
		if h, done = sh.mux.lookup(inst, sh.addr); h.ep == nil && !done {
			switch {
			case sh.closed:
				sh.reinject(d)
			case sh.retainedLen < muxRetainCap:
				if sh.retained == nil {
					sh.retained = make(map[string][]Delivery)
				}
				sh.retained[inst] = append(sh.retained[inst], d)
				sh.retainedLen++
			}
		}
		sh.mu.Unlock()
	}
	if h.ep != nil {
		h.deliver(d.From, &d.Msg, d.Corrupt)
	}
}

// reinject hands one delivery back to the transport when this address can
// no longer retain it (see route and muxEndpoint.Close). Callers hold
// sh.mu; a transport that supports re-injection takes its own network lock
// under it — shared-endpoint lock before network lock is the sanctioned
// order, never the reverse. Transports without re-injection (the
// in-process sim) drop the frame, and so does TCP outside node mode unless
// a successor endpoint is already bound.
func (sh *muxShared) reinject(d Delivery) {
	if rj, ok := sh.real.(interface{ Reinject(Delivery) bool }); ok {
		rj.Reinject(d)
	}
}

// shut marks the shared endpoint closed and closes every open instance's
// queue and lane, so blocked receivers observe the stop exactly as on an
// unmuxed endpoint. It reports false if the endpoint was already closed.
func (sh *muxShared) shut() bool {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return false
	}
	sh.closed = true
	var wake []*muxEndpoint
	for _, ep := range sh.eps {
		if ep.stopInline() {
			wake = append(wake, ep)
		}
	}
	sh.mu.Unlock()
	for _, ep := range wake {
		ep.inl.wake <- struct{}{}
	}
	return true
}

// muxEndpoint is one (action instance, thread) virtual endpoint. Besides the
// receive queue (virtual clocks, and real-time endpoints before a thread
// adopts them), it carries the inline-lane state. imu guards gen and inl,
// and is only ever taken after sh.mu, never the reverse (inline-routed
// steps defer their sends so that no send happens under imu).
type muxEndpoint struct {
	mux    *Mux
	shared *muxShared
	rec    *MuxInstance
	queue  *vclock.Queue
	slot   int // 1 + index in shared.eps while open, 0 once closed; under sh.mu

	imu sync.Mutex
	gen uint64
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
	return e.shared.send(e.rec, to, &msg)
}

func (e *muxEndpoint) Recv() (Delivery, bool) {
	return unboxDelivery(e.queue.Get())
}

func (e *muxEndpoint) RecvTimeout(timeout time.Duration) (Delivery, bool) {
	return unboxDelivery(e.queue.GetTimeout(timeout))
}

func (e *muxEndpoint) Pending() int { return e.queue.Len() }

// Close completes this instance on this thread address: late traffic for it
// here is dropped, the instance's last Close leaves its tombstone, and
// closing the address's last instance tears the shared endpoint down,
// stopping its pump and freeing the address.
func (e *muxEndpoint) Close() error {
	sh := e.shared
	sh.mu.Lock()
	if e.slot == 0 {
		sh.mu.Unlock()
		return nil // already closed
	}
	last := sh.eps[len(sh.eps)-1]
	sh.eps[e.slot-1], last.slot = last, e.slot
	sh.eps[len(sh.eps)-1] = nil
	sh.eps = sh.eps[:len(sh.eps)-1]
	e.slot = 0
	// Closing the lane also wakes an owner parked in it: a cancellation
	// watcher may close the endpoint out from under a parked thread.
	wake := e.stopInline()
	sh.mux.release(e.rec)
	lastOnAddr := len(sh.eps) == 0 && !sh.closed
	if lastOnAddr {
		sh.closed = true
		// Frames retained for instances that never opened here must not die
		// with the shared endpoint: the usual reason they exist is a fast
		// peer racing this thread's next action start. Hand them back to the
		// transport (under sh.mu, so by-tag deliveries of younger backlog
		// order after them) for the address's next bind.
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
	if lastOnAddr {
		// Close the real endpoint BEFORE the shared entry is forgotten: a
		// concurrent Open of this address then either still finds the entry
		// (sees sh.closed, retries until forget runs) or re-binds after the
		// address is genuinely free. The forget itself is the pump's:
		// closing the real endpoint stops its receive loop once the
		// pre-close backlog has drained through route (which reinjects it,
		// the endpoint being closed), and only then does the pump release
		// the address.
		return sh.real.Close()
	}
	return nil
}
