package transport

import (
	"sync"
	"time"

	"caaction/internal/protocol"
)

// This file implements the run-to-completion delivery lane of the event-loop
// core: on real-time systems, a goroutine that already holds a delivery for a
// parked thread executes that thread's protocol step inline — the routing a
// dedicated receiver goroutine would otherwise be woken up for — and only
// schedules a wakeup when the step completes the parked wait's condition.
// Combined with the sim's delivery to a handle resolved at send time (see
// Sim.fastSend), a protocol message between co-located threads costs a
// function call instead of two queue hand-offs and two scheduler wakeups.
//
// The lane is strictly an execution optimisation: message routing logic,
// per-pair FIFO order and the WAL recorder hooks are untouched, and the lane
// never activates under the virtual clock, so deterministic simulations (and
// their golden traces) execute exactly as before.

// InlineStatus reports how an AwaitInline wait ended.
type InlineStatus int

const (
	// InlineDelivery: a buffered delivery is returned; the owner routes it
	// on its own goroutine and re-evaluates its wait condition.
	InlineDelivery InlineStatus = iota + 1
	// InlineWoken: a delivering goroutine executed protocol steps against
	// the parked thread and observed the wait condition become true. The
	// owner re-checks its condition (wakeups are level-triggered: a
	// condition that held at wake time is durable until the owner acts).
	InlineWoken
	// InlineTimeout: the wait's deadline expired with no delivery and no
	// wakeup.
	InlineTimeout
	// InlineClosed: the endpoint closed and its buffer is drained — the
	// inline-mode equivalent of a receive returning ok=false.
	InlineClosed
)

// Outbound is one send deferred by an inline-routed protocol step. Steps
// executed by a delivering goroutine must not send while endpoint locks are
// held (two deliverers sending toward each other would deadlock), so their
// sends are buffered and flushed by the deliverer after unlocking — before
// the owner is woken, which preserves the per-pair FIFO order the owner's
// subsequent sends rely on.
type Outbound struct {
	To  string
	Msg protocol.Message
}

// outboundPool recycles the buffers of deferred sends: a router borrows one
// when a routed step first defers a send, and the deliverer that flushes it
// returns it, so deferring allocates nothing in steady state.
var outboundPool = sync.Pool{New: func() any { return new([]Outbound) }}

// BorrowOutbound returns an empty pooled buffer for deferred sends.
func BorrowOutbound() *[]Outbound { return outboundPool.Get().(*[]Outbound) }

// releaseOutbound scrubs a flushed buffer and returns it to the pool.
func releaseOutbound(outs *[]Outbound) {
	clear(*outs)
	*outs = (*outs)[:0]
	outboundPool.Put(outs)
}

// InlineRouter is the thread-side half of the lane, implemented by
// core.Thread. All four methods are invoked with the endpoint's delivery
// lock held and the owner goroutine parked (or still blocked on the wakeup
// the caller is about to deliver), so they may touch thread state that is
// otherwise goroutine-confined: park/claim transitions under the lock, plus
// the wakeup channel, establish the necessary happens-before edges.
type InlineRouter interface {
	// RouteInline executes one delivered protocol step against the parked
	// thread's state, deferring any sends it produces.
	RouteInline(d Delivery)
	// ParkReady reports whether the parked wait's condition now holds. Only
	// durable thread state may be consulted — the owner re-checks on wake.
	ParkReady() bool
	// TakeDeferred hands the sends deferred by preceding RouteInline calls
	// to the deliverer, in a buffer from BorrowOutbound or nil when there
	// are none (ownership transfers; the router's buffer resets).
	TakeDeferred() *[]Outbound
	// InlineSendError reports a failed deferred send; implementations may
	// only touch state that is safe off the owner goroutine (e.g. a
	// concurrency-safe log).
	InlineSendError(to string, err error)
}

// InlineEndpoint is the endpoint extension the runtime's threads use to
// enter inline mode. Only the endpoint's single owner goroutine may call
// AwaitInline/PollInline, mirroring the Recv confinement of plain endpoints.
type InlineEndpoint interface {
	Endpoint
	// AdoptRouter switches the endpoint into inline mode, migrating any
	// already-buffered deliveries. It reports false when the endpoint
	// cannot run the lane (virtual clock, lane disabled, or endpoint
	// closed); the caller then keeps the ordinary Recv loop.
	AdoptRouter(r InlineRouter) bool
	// AwaitInline blocks until a delivery is buffered, the router observes
	// the park condition (InlineWoken), the timeout expires, or the
	// endpoint closes. A negative timeout means no deadline.
	AwaitInline(timeout time.Duration) (Delivery, InlineStatus)
	// PollInline pops one buffered delivery without blocking.
	PollInline() (Delivery, bool)
}

// inlineState is the per-endpoint half of the lane, embedded in muxEndpoint.
// mu guards every field; wake is a reusable capacity-1 channel carrying
// exactly one signal per park claim.
type inlineState struct {
	router InlineRouter
	inbox  []Delivery
	head   int
	parked bool
	closed bool
	wake   chan struct{}
	// timer backs timed parks; owner-confined, reused across waits.
	timer *time.Timer
}

// inlinePost carries the work a delivery defers until the endpoint lock is
// released: flushing the routed step's sends, then waking the owner.
type inlinePost struct {
	wake   bool
	outs   *[]Outbound
	router InlineRouter
	// sh and rec resolve the deferred sends; captured under imu because the
	// owner may close and recycle the endpoint once it stops parking.
	sh  *muxShared
	rec *MuxInstance
}

// deliver buffers or inline-executes one delivery (from, msg, corrupt)
// resolved to generation gen of this endpoint. imu is the only lock it
// takes, and it pins the endpoint: Close closes the lane and
// RecycleEndpoint bumps gen under it, so a message for a completed instance
// is dropped and a step never races the endpoint's recycling. What the
// step defers is left in post.
func (e *muxEndpoint) deliver(gen uint64, from string, msg *protocol.Message, corrupt bool, post *inlinePost) {
	e.imu.Lock()
	defer e.imu.Unlock()
	if e.gen != gen || e.inl.closed {
		return
	}
	if e.inl.router == nil {
		// Queue mode: virtual clocks, or no thread has adopted the endpoint
		// yet. Enqueued under imu so AdoptRouter's drain cannot interleave
		// with a put and strand a delivery behind the mode switch.
		if box := borrowDelivery(from, msg, corrupt); !e.queue.PutOpen(box) {
			releaseDelivery(box)
		}
		return
	}
	if !e.inl.parked {
		// Owner is running: buffer the delivery by value (no box — the
		// inbox is the zero-copy lane) for its next Await/Poll.
		e.inl.inbox = append(e.inl.inbox, Delivery{From: from, Msg: *msg, Corrupt: corrupt})
		return
	}
	// Owner is parked: run the protocol step here, on the delivering
	// goroutine. Sends the step produces are deferred (flushed by the
	// caller after unlocking); the owner is woken only when the step
	// completed its wait condition.
	e.inl.router.RouteInline(Delivery{From: from, Msg: *msg, Corrupt: corrupt})
	post.outs = e.inl.router.TakeDeferred()
	post.router = e.inl.router
	post.sh, post.rec = e.shared, e.rec
	if e.inl.router.ParkReady() {
		e.inl.parked = false
		post.wake = true
	}
}

// finishInline performs a delivery's deferred work after imu is released:
// deferred sends first (so the woken owner's own sends cannot overtake them
// on any pair), each resolved from the instance record, then the wakeup.
func (e *muxEndpoint) finishInline(post *inlinePost) {
	if outs := post.outs; outs != nil {
		for i := range *outs {
			o := &(*outs)[i]
			if err := post.sh.send(post.rec, o.To, &o.Msg); err != nil {
				post.router.InlineSendError(o.To, err)
			}
		}
		releaseOutbound(outs)
	}
	if post.wake {
		e.inl.wake <- struct{}{}
	}
}

// AdoptRouter implements InlineEndpoint.
func (e *muxEndpoint) AdoptRouter(r InlineRouter) bool {
	if !e.mux.inline || r == nil {
		return false
	}
	e.imu.Lock()
	defer e.imu.Unlock()
	if e.inl.closed || e.inl.router != nil {
		return false
	}
	if e.inl.wake == nil {
		e.inl.wake = make(chan struct{}, 1)
	}
	e.inl.router = r
	// Migrate deliveries buffered before adoption — retained-instance
	// replays and sends that raced the thread's start — preserving order:
	// everything in the queue predates everything the inbox will receive.
	for {
		x, ok := e.queue.TryGet()
		if !ok {
			break
		}
		dp := x.(*Delivery)
		e.inl.inbox = append(e.inl.inbox, *dp)
		releaseDelivery(dp)
	}
	return true
}

// popLocked moves the oldest buffered delivery to d. The inbox is a slice
// with a head cursor so a burst drains without memmove; fully drained, it
// resets for reuse.
func (e *muxEndpoint) popLocked(d *Delivery) bool {
	if e.inl.head >= len(e.inl.inbox) {
		return false
	}
	slot := &e.inl.inbox[e.inl.head]
	*d = *slot
	*slot = Delivery{}
	e.inl.head++
	if e.inl.head == len(e.inl.inbox) {
		e.inl.inbox = e.inl.inbox[:0]
		e.inl.head = 0
	}
	return true
}

// PollInline implements InlineEndpoint.
func (e *muxEndpoint) PollInline() (d Delivery, ok bool) {
	e.imu.Lock()
	ok = e.popLocked(&d)
	e.imu.Unlock()
	return d, ok
}

// AwaitInline implements InlineEndpoint.
func (e *muxEndpoint) AwaitInline(timeout time.Duration) (d Delivery, _ InlineStatus) {
	e.imu.Lock()
	if e.popLocked(&d) {
		e.imu.Unlock()
		return d, InlineDelivery
	}
	if e.inl.closed {
		e.imu.Unlock()
		return Delivery{}, InlineClosed
	}
	e.inl.parked = true
	e.imu.Unlock()

	if timeout < 0 {
		<-e.inl.wake
		return Delivery{}, InlineWoken
	}
	t := e.inl.timer
	if t == nil {
		t = time.NewTimer(timeout)
		e.inl.timer = t
	} else {
		t.Reset(timeout)
	}
	select {
	case <-e.inl.wake:
		t.Stop()
		return Delivery{}, InlineWoken
	case <-t.C:
		e.imu.Lock()
		if e.inl.parked {
			// Nobody claimed the park: self-unpark and report the timeout.
			e.inl.parked = false
			e.imu.Unlock()
			return Delivery{}, InlineTimeout
		}
		e.imu.Unlock()
		// A deliverer (or closer) claimed the park concurrently with the
		// timer: its wakeup is in flight and must be consumed so the
		// channel is empty for the next park.
		<-e.inl.wake
		return Delivery{}, InlineWoken
	}
}

// live reports whether the endpoint is still the open incarnation gen.
func (e *muxEndpoint) live(gen uint64) bool {
	e.imu.Lock()
	defer e.imu.Unlock()
	return e.gen == gen && !e.inl.closed
}

// stopInline closes the endpoint's queue and inline lane under imu, so no
// delivery lands after it, and reports whether the caller must wake a
// parked owner once its locks are released.
func (e *muxEndpoint) stopInline() (wake bool) {
	e.imu.Lock()
	defer e.imu.Unlock()
	e.queue.Close()
	if e.inl.closed {
		return false
	}
	e.inl.closed = true
	wake = e.inl.parked
	e.inl.parked = false
	return wake
}

// recycleInline scrubs the endpoint for reuse: the generation moves on, so
// handles resolved for the completed instance deliver nothing; buffered
// deliveries are dropped, the router detaches, and the closed marker resets
// so the next incarnation starts fresh. The wake channel and timer persist
// across incarnations — both are guaranteed empty/stopped whenever the
// owner is outside AwaitInline.
func (e *muxEndpoint) recycleInline() {
	e.imu.Lock()
	e.gen++
	e.shared, e.rec = nil, nil
	e.inl.router = nil
	e.inl.inbox = e.inl.inbox[:0]
	e.inl.head = 0
	e.inl.parked = false
	e.inl.closed = false
	e.imu.Unlock()
}
