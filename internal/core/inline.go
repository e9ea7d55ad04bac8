package core

import (
	"time"

	"caaction/internal/transport"
)

// This file is the thread-side half of the run-to-completion event core (the
// transport-side half is internal/transport's inline lane). A thread whose
// endpoint supports the lane adopts it in NewThreadOn; its blocking protocol
// waits — the entry barrier, resolution rounds, the exit exchange, and the
// Context's Compute/Recv/Checkpoint — then become parked continuations: the
// thread publishes WHAT it is waiting for (a parkState over durable frame
// state) and blocks, and the goroutine delivering the next frame executes the
// routing step itself, waking the owner only once the published wait
// condition holds. A protocol message between co-located threads therefore
// costs one function call on the sender's goroutine instead of a queue
// hand-off plus a scheduler wakeup per hop, and a causal chain of ready steps
// runs to completion on one goroutine.
//
// Confinement: thread state stays effectively goroutine-confined. A
// delivering goroutine touches it only between the owner's park and wake
// (both transitions happen under the endpoint's delivery lock, which also
// serialises deliverers against each other), so every routing step still sees
// the thread exactly as the owner left it. Sends produced while routing on a
// delivering goroutine are deferred through th.send's inRoute check and
// flushed by the deliverer after it drops the endpoint locks — sending inline
// would acquire the destination endpoint's locks and deadlock two deliverers
// sending toward each other.
//
// Every inline wait loop below mirrors its legacy queue-mode twin
// line-for-line on the state it checks and the order it checks it in; the
// wake predicates in ParkReady consult only durable frame state the owner
// re-validates after waking, so a spurious wakeup is always safe.

// parkKind tags which wait the owner goroutine is parked in, selecting the
// wake predicate a delivering goroutine evaluates after routing a step.
type parkKind int

const (
	parkNone parkKind = iota
	// parkPump: a protocol wait (entry barrier, resolution round, exit
	// exchange); wakes when the pumpCond holds or an enclosing abort is
	// pending.
	parkPump
	// parkCompute: a modelled computation; wakes only for the cooperative
	// interruption points (informed of concurrent exceptions, enclosing
	// abort) — otherwise the owner sleeps out its duration.
	parkCompute
	// parkRecv: a cooperation receive; wakes when a payload from the awaited
	// sender is buffered, or for the interruption points.
	parkRecv
)

// parkState publishes the owner's current wait to delivering goroutines. The
// owner writes it immediately before parking; the park transition inside
// AwaitInline orders that write before any deliverer's read.
type parkState struct {
	kind parkKind
	f    *frame
	cond pumpCond
	from int // parkRecv: the awaited sender's index in the frame's peers
}

// threadRouter adapts a Thread to transport.InlineRouter without exporting
// protocol machinery on Thread's public method set. It is embedded by value
// (stable pointer identity across the thread's pooled lifetime).
type threadRouter struct{ th *Thread }

var _ transport.InlineRouter = (*threadRouter)(nil)

// RouteInline implements transport.InlineRouter: one delivered protocol step,
// executed on the delivering goroutine against the parked thread. The send
// deferral window (inRoute) spans exactly this routing call; the verdict is
// discarded because everything it reports — informed transitions, pending
// enclosing aborts — is durable frame state the wake predicate re-derives.
func (r *threadRouter) RouteInline(d transport.Delivery) {
	th := r.th
	th.inRoute = true
	th.route(&d)
	th.inRoute = false
}

// ParkReady implements transport.InlineRouter: whether the owner's published
// wait condition now holds. Each arm mirrors the loop-head checks of the
// corresponding inline wait loop (and therefore of the legacy queue-mode
// loop it replaced).
func (r *threadRouter) ParkReady() bool {
	th := r.th
	f := th.park.f
	switch th.park.kind {
	case parkPump:
		return f.condMet(th.park.cond) ||
			(!f.aborting && th.enclosingAbortTarget(f) != "")
	case parkCompute:
		return !f.aborting && (f.informed || th.enclosingAbortTarget(f) != "")
	case parkRecv:
		return f.hasApp(th.park.from) ||
			(!f.aborting && (f.informed || th.enclosingAbortTarget(f) != ""))
	}
	// No wait published (endpoint mid-transition): wake; the owner
	// re-validates everything anyway.
	return true
}

// TakeDeferred implements transport.InlineRouter; ownership of the buffered
// sends transfers to the deliverer.
func (r *threadRouter) TakeDeferred() *[]transport.Outbound {
	outs := r.th.deferred
	r.th.deferred = nil
	return outs
}

// InlineSendError implements transport.InlineRouter. The runtime log is
// concurrency-safe, so reporting off the owner goroutine is fine.
func (r *threadRouter) InlineSendError(to string, err error) {
	r.th.logf("send.error", "to %s: %v", to, err)
}

// pumpInline is pump's run-to-completion twin: buffered frames are drained
// without blocking, and an empty inbox parks the thread instead of blocking a
// queue receive. deadline has already been clamped by the caller.
func (th *Thread) pumpInline(f *frame, cond pumpCond, deadline time.Duration) error {
	for {
		if t := th.enclosingAbortTarget(f); t != "" && !f.aborting {
			return f.abort(t)
		}
		if f.condMet(cond) {
			return nil
		}
		if d, ok := th.iep.PollInline(); ok {
			v := th.route(&d)
			if v.abortTarget != "" && !f.aborting {
				return f.abort(v.abortTarget)
			}
			continue
		}
		timeout := time.Duration(-1)
		if deadline > 0 {
			now := th.rt.clock.Now()
			if now >= deadline {
				return th.deadlineErr(now)
			}
			timeout = deadline - now
		}
		th.park = parkState{kind: parkPump, f: f, cond: cond}
		d, st := th.iep.AwaitInline(timeout)
		switch st {
		case transport.InlineDelivery:
			v := th.route(&d)
			if v.abortTarget != "" && !f.aborting {
				return f.abort(v.abortTarget)
			}
		case transport.InlineTimeout:
			if now := th.rt.clock.Now(); now >= deadline {
				return th.deadlineErr(now)
			}
		case transport.InlineClosed:
			return ErrThreadStopped
		}
		// InlineWoken: a deliverer saw the wait condition hold; the loop head
		// re-validates it (durable state, so it still holds unless the owner
		// itself consumes it).
	}
}

// computeInline is Compute's run-to-completion twin. The loop-head informed
// check stands in for the legacy loop's routing-verdict check: informed flips
// true only through routed messages, whoever routed them.
func (c *Context) computeInline(deadline time.Duration) error {
	f, th := c.f, c.th
	for {
		if t := th.enclosingAbortTarget(f); t != "" && !f.aborting {
			return f.abort(t)
		}
		if !f.aborting && f.informed {
			return &f.interruptErr
		}
		now := th.rt.clock.Now()
		if now >= deadline {
			if th.deadline > 0 && now >= th.deadline {
				return ErrDeadline
			}
			return nil
		}
		if d, ok := th.iep.PollInline(); ok {
			v := th.route(&d)
			if err := c.verdictErr(v); err != nil {
				return err
			}
			continue
		}
		th.park = parkState{kind: parkCompute, f: f}
		d, st := th.iep.AwaitInline(deadline - now)
		switch st {
		case transport.InlineDelivery:
			v := th.route(&d)
			if err := c.verdictErr(v); err != nil {
				return err
			}
		case transport.InlineClosed:
			return ErrThreadStopped
		}
		// Woken / Timeout: the loop head re-checks state and the deadline.
	}
}

// recvInline is recv's run-to-completion twin. Payload order is preserved:
// the buffered-payload check precedes the interruption checks, exactly as in
// queue mode.
func (c *Context) recvInline(from int, deadline time.Duration) (any, error) {
	f, th := c.f, c.th
	for {
		if f.hasApp(from) {
			return f.takeApp(from), nil
		}
		if t := th.enclosingAbortTarget(f); t != "" && !f.aborting {
			return nil, f.abort(t)
		}
		if !f.aborting && f.informed {
			return nil, &f.interruptErr
		}
		timeout := time.Duration(-1)
		if deadline > 0 {
			now := th.rt.clock.Now()
			if now >= deadline {
				return nil, th.recvDeadlineErr(now)
			}
			timeout = deadline - now
		}
		th.park = parkState{kind: parkRecv, f: f, from: from}
		d, st := th.iep.AwaitInline(timeout)
		switch st {
		case transport.InlineDelivery:
			v := th.route(&d)
			if err := c.verdictErr(v); err != nil {
				return nil, err
			}
		case transport.InlineTimeout:
			if now := th.rt.clock.Now(); now >= deadline {
				return nil, th.recvDeadlineErr(now)
			}
		case transport.InlineClosed:
			return nil, ErrThreadStopped
		}
	}
}

// checkpointInline is Checkpoint's non-blocking drain over the inline inbox.
func (c *Context) checkpointInline() error {
	th := c.th
	for {
		d, ok := th.iep.PollInline()
		if !ok {
			return nil
		}
		v := th.route(&d)
		if err := c.verdictErr(v); err != nil {
			return err
		}
	}
}
