package core

import (
	"errors"
	"fmt"
	"time"

	"caaction/internal/atomicobj"
	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/transport"
)

// ErrTimeout is returned by RecvTimeout when no matching message arrives in
// time.
var ErrTimeout = errors.New("core: receive timed out")

// Context is a role's interface to the runtime while executing inside one
// action frame. Bodies, handlers and abortion handlers receive a Context and
// MUST propagate any non-nil error returned by its methods: those errors are
// the cooperative equivalent of the paper's asynchronous transfer of control,
// unwinding the role into coordinated exception handling.
//
// A Context is confined to its thread's goroutine, and valid only while its
// action runs: afterwards every method but Self, ActionID, Now and Logf
// panics.
type Context struct {
	th *Thread
	f  *frame
	// id and gen snapshot the frame's instance identifier and pool
	// generation at creation, so a Context retained past its action's end
	// is detected (and panics in pre) even after the frame object has been
	// recycled into a new instance — and the diagnostic names THIS
	// context's action, not whatever instance currently owns the recycled
	// frame.
	id  string
	gen uint64
}

// Self returns the thread identifier.
func (c *Context) Self() string { return c.th.id }

// Role returns the role this thread plays in the action.
func (c *Context) Role() string { return c.frame().role }

// ActionID returns the action instance identifier. It is the snapshot
// taken when the Context was created, so a Context kept past its action
// still names that action, not the one its recycled frame now serves.
func (c *Context) ActionID() string { return c.id }

// Depth returns the action's nesting depth: 0 for a top-level action, 1
// for its direct children, and so on. Read from the identifier's parsed
// form cached on the frame — no string splitting.
func (c *Context) Depth() int { return c.frame().pid.Depth }

// InstanceTag returns the mux instance tag of the action instance this
// frame belongs to.
func (c *Context) InstanceTag() string { return c.frame().pid.Tag }

// SpecName returns the action's specification name.
func (c *Context) SpecName() string { return c.frame().spec.Name }

// Round returns the number of completed resolution rounds in this action.
func (c *Context) Round() int { return c.frame().round }

// Now returns the current (virtual or real) time.
func (c *Context) Now() time.Duration { return c.th.rt.clock.Now() }

// Tx returns the transaction tracking this role's external-object use,
// created by the first call.
func (c *Context) Tx() *atomicobj.Tx { return c.frame().txn() }

// Logf records a runtime event attributed to this thread.
func (c *Context) Logf(format string, args ...any) {
	c.th.logf("app", format, args...)
}

// frame returns the Context's frame, panicking once the Context's action has
// ended: the frame may since serve another action, whose role, round and
// transaction are not this Context's. The accessors that read the frame go
// through it; the blocking operations check the same in pre.
func (c *Context) frame() *frame {
	if c.f.gen != c.gen {
		c.outsideFrame()
	}
	return c.f
}

// outsideFrame panics for a Context used outside its frame. It reports the
// snapshotted id: a recycled frame's fields belong to a different (possibly
// concurrently running) instance.
func (c *Context) outsideFrame() {
	panic(fmt.Sprintf("core: Context for %s used outside its frame", c.id))
}

// pre checks that the frame is current and that no pending exception
// obliges the caller to unwind.
func (c *Context) pre() error {
	if c.th.top() != c.f || c.f.gen != c.gen {
		c.outsideFrame()
	}
	if c.f.aborting {
		return nil // abortion handlers run to completion, uninterrupted
	}
	if c.f.informed || c.f.hasDecided {
		return &c.f.interruptErr
	}
	return nil
}

// Raise raises exception id in the current action (§3.3.2): the thread moves
// to the exceptional state, every peer is sent an Exception message and the
// external objects used so far are informed. The returned error must be
// propagated out of the body or handler; resolution then proceeds.
func (c *Context) Raise(id except.ID, info string) error {
	if err := c.pre(); err != nil {
		return err
	}
	if c.f.aborting {
		return fmt.Errorf("core: Raise inside abortion handler of %s (return Eab instead)", c.f.id)
	}
	f, th := c.f, c.th
	th.ensureInstance(f)
	exc := except.Raised{ID: id, Origin: th.id, Info: info, At: th.rt.clock.Now()}
	th.rt.counters.raises.Add(1)
	if th.rt.rec != nil {
		// Write-ahead: the raise is durable before the Exception messages go
		// out.
		th.rt.rec.RecordRaise(th.id, f.id, f.round, string(id))
	}
	if th.logOn {
		th.logf("raise", "%s: %s (%s)", f.id, id, info)
	}
	out := f.inst.Raise(exc)
	f.tx.Inform(exc)
	if out.Decided && !f.hasDecided {
		f.decided, f.hasDecided = out, true
	}
	return &f.raiseErr
}

// Signal declares the interface exception ε this role will signal when the
// action exits exceptionally (or even successfully, for partial results).
// The exception must be declared in the spec's Signals (µ and ƒ always are).
func (c *Context) Signal(id except.ID) error {
	f := c.frame()
	if id != except.None && !f.spec.CanSignal(id) {
		return fmt.Errorf("core: %s cannot signal undeclared exception %q", f.spec.Name, id)
	}
	f.epsilon = id
	return nil
}

// Compute models d of computation, processing runtime messages as they
// arrive (the cooperative interruption points of §2.1). It returns early
// with a control error when the thread is informed of concurrent exceptions
// or an enclosing action aborts this one.
func (c *Context) Compute(d time.Duration) error {
	if err := c.pre(); err != nil {
		return err
	}
	f, th := c.f, c.th
	deadline := th.rt.clock.Now() + d
	// The thread's propagated action deadline (SetDeadline) clamps the
	// computation: a doomed action stops computing and unwinds.
	if th.deadline > 0 && th.deadline < deadline {
		deadline = th.deadline
	}
	if th.inline {
		return c.computeInline(deadline)
	}
	for {
		if t := th.enclosingAbortTarget(f); t != "" && !f.aborting {
			return f.abort(t)
		}
		now := th.rt.clock.Now()
		if now >= deadline {
			if th.deadline > 0 && now >= th.deadline {
				return ErrDeadline
			}
			return nil
		}
		dd, ok := th.ep.RecvTimeout(deadline - now)
		if !ok {
			if now = th.rt.clock.Now(); now >= deadline {
				if th.deadline > 0 && now >= th.deadline {
					return ErrDeadline
				}
				return nil
			}
			return ErrThreadStopped
		}
		v := th.route(&dd)
		if err := c.verdictErr(v); err != nil {
			return err
		}
	}
}

// Checkpoint processes any already-delivered messages without blocking and
// reports pending control transfers. Long-running bodies should call it
// periodically.
func (c *Context) Checkpoint() error {
	if err := c.pre(); err != nil {
		return err
	}
	f, th := c.f, c.th
	if th.inline {
		if err := c.checkpointInline(); err != nil {
			return err
		}
	} else {
		for th.ep.Pending() > 0 {
			d, ok := th.ep.RecvTimeout(0)
			if !ok {
				break
			}
			v := th.route(&d)
			if err := c.verdictErr(v); err != nil {
				return err
			}
		}
	}
	if t := th.enclosingAbortTarget(f); t != "" && !f.aborting {
		return f.abort(t)
	}
	return nil
}

// Send transmits cooperation data to the peer playing the named role.
func (c *Context) Send(role string, payload any) error {
	if err := c.pre(); err != nil {
		return err
	}
	to, ok := c.f.spec.ThreadFor(role)
	if !ok {
		return fmt.Errorf("%w: %q in %s", ErrUnknownRole, role, c.f.spec.Name)
	}
	c.th.send(to, protocol.Message{Kind: protocol.KindApp,
		Action: c.f.id, From: c.th.id, Role: role, Payload: payload})
	return nil
}

// Recv blocks until cooperation data arrives from the peer playing the named
// role, processing runtime messages while waiting.
func (c *Context) Recv(role string) (any, error) {
	return c.recv(role, 0)
}

// RecvTimeout is Recv bounded by a deadline; it returns ErrTimeout when
// nothing arrives in time.
func (c *Context) RecvTimeout(role string, timeout time.Duration) (any, error) {
	return c.recv(role, timeout)
}

func (c *Context) recv(role string, timeout time.Duration) (any, error) {
	if err := c.pre(); err != nil {
		return nil, err
	}
	f, th := c.f, c.th
	thread, ok := f.spec.ThreadFor(role)
	if !ok {
		return nil, fmt.Errorf("%w: %q in %s", ErrUnknownRole, role, f.spec.Name)
	}
	from := f.peerIndex(thread)
	var deadline time.Duration
	if timeout > 0 {
		deadline = th.rt.clock.Now() + timeout
	}
	// The thread's propagated action deadline (SetDeadline) clamps the wait
	// — including an unbounded Recv, which must not block a doomed action
	// forever.
	if th.deadline > 0 && (deadline == 0 || th.deadline < deadline) {
		deadline = th.deadline
	}
	if th.inline {
		return c.recvInline(from, deadline)
	}
	for {
		if f.hasApp(from) {
			return f.takeApp(from), nil
		}
		if t := th.enclosingAbortTarget(f); t != "" && !f.aborting {
			return nil, f.abort(t)
		}
		var d transport.Delivery
		var got bool
		if deadline > 0 {
			now := th.rt.clock.Now()
			if now >= deadline {
				return nil, th.recvDeadlineErr(now)
			}
			d, got = th.ep.RecvTimeout(deadline - now)
			if !got {
				if now = th.rt.clock.Now(); now >= deadline {
					return nil, th.recvDeadlineErr(now)
				}
				return nil, ErrThreadStopped
			}
		} else {
			d, got = th.ep.Recv()
			if !got {
				return nil, ErrThreadStopped
			}
		}
		v := th.route(&d)
		if err := c.verdictErr(v); err != nil {
			return nil, err
		}
	}
}

// recvDeadlineErr picks the error for an expired recv wait: ErrDeadline when
// the thread's propagated action deadline expired, ErrTimeout when only the
// caller's own RecvTimeout bound did.
func (th *Thread) recvDeadlineErr(now time.Duration) error {
	if th.deadline > 0 && now >= th.deadline {
		return ErrDeadline
	}
	return ErrTimeout
}

// verdictErr converts a routing verdict into the control error the body must
// propagate, honouring the non-interruptible abortion-handler mode.
func (c *Context) verdictErr(v routeVerdict) error {
	if v.abortTarget != "" && !c.f.aborting {
		return c.f.abort(v.abortTarget)
	}
	if v.interrupt && !c.f.aborting {
		return &c.f.interruptErr
	}
	return nil
}

// Enter performs a nested CA action (§3.1): this thread plays the given role
// of spec, synchronising with the other participants. On a successful nested
// exit Enter returns nil and the body continues. When the nested action
// signals an exception ε (including µ/ƒ, mapped through Spec.UndoneExc and
// Spec.FailedExc), the exception is raised here in the enclosing action —
// "handled as if concurrently raised in the enclosing action" — and the
// returned control error must be propagated.
func (c *Context) Enter(spec *Spec, role string, prog RoleProgram) error {
	if err := c.pre(); err != nil {
		return err
	}
	if c.f.aborting {
		return fmt.Errorf("core: Enter inside abortion handler of %s", c.f.id)
	}
	err := c.th.perform(c.f, spec, role, prog)
	switch e := err.(type) {
	case nil:
		return nil
	case *SignalledError:
		var id except.ID
		switch e.Exc {
		case except.Undo:
			id = spec.UndoneExc()
		case except.Failure:
			id = spec.FailedExc()
		default:
			id = e.Exc
		}
		return c.Raise(id, "signalled by nested action "+e.Action)
	case *abortError:
		if e.target == c.f.id {
			return c.th.absorbAbort(c.f, e)
		}
		return c.f.abort(e.target)
	default:
		return err
	}
}
