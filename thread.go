package caaction

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"caaction/internal/core"
)

// Thread is one participating execution thread of the distributed system. A
// Thread is confined to one goroutine: all its methods, and all Context
// methods handed to its bodies and handlers, must be called from that
// goroutine (under virtual time, one started with System.Go).
type Thread struct {
	sys   *System
	inner *core.Thread
}

// threadTag is the instance tag of every thread made with System.Thread,
// each one role of that instance on the System's demultiplexer: their
// actions' identifiers read "t!<spec>#<n>".
const threadTag = "t"

// Thread creates a thread at the thread address id: a role of the System's
// "t" instance, so the address may also carry StartAction roles, but a
// second Thread at id fails while the first is open. After Drain (or
// Close) has begun, Thread refuses with ErrDraining (then ErrSystemClosed
// once Close completes). While the WithMaxInFlight admission budget is
// exhausted, Thread fast-rejects with a typed *OverloadedError (matching
// ErrOverloaded); threads consume no action budget themselves, but new
// entry points are refused while the system is saturated so both start
// paths shed load uniformly.
func (s *System) Thread(id string) (*Thread, error) {
	if s.closed.Load() {
		return nil, ErrSystemClosed
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if s.overloaded() {
		s.rejected.Add(1)
		return nil, &OverloadedError{Limit: s.maxInFlight}
	}
	ep, err := s.muxNet().Open(threadTag, id)
	if err != nil {
		return nil, fmt.Errorf("caaction: thread %q: %w", id, err)
	}
	return &Thread{sys: s, inner: s.rt.NewThreadOn(id, ep, s.threadInst)}, nil
}

// ID returns the thread identifier.
func (t *Thread) ID() string { return t.inner.ID() }

// Close releases the thread's endpoint. A thread blocked in an action
// observes ErrThreadStopped.
func (t *Thread) Close() error { return t.inner.Close() }

// Perform executes a top-level CA action: this thread plays the given role
// of spec, synchronising with the threads bound to the other roles. It
// returns nil when the action exits successfully, or a *SignalledError
// (matching ErrSignalled, inspectable with AsSignalled/errors.As) carrying
// the exception this role signalled — an application ε, Undo (µ) or
// Failure (ƒ).
//
// Cancelling ctx maps onto the runtime's cooperative interrupt path: the
// thread's endpoint is closed, every blocking Context operation inside the
// role observes the stop and unwinds, and Perform returns an error matching
// both ErrThreadStopped and ctx's cause (context.Canceled or
// context.DeadlineExceeded). The thread cannot be reused afterwards.
// Cancellation is inherently a wall-clock event; under the deterministic
// virtual clock it still works but makes the run timing-dependent.
func (t *Thread) Perform(ctx context.Context, spec *Spec, role string, prog RoleProgram) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("caaction: %s/%s not started: %w", spec.Name, role, context.Cause(ctx))
	}
	// A ctx deadline propagates into the runtime's protocol waits (see
	// StartAction); cleared when this ctx carries none, so a reused thread
	// never inherits a stale deadline from an earlier Perform.
	if dl, ok := ctx.Deadline(); ok {
		t.inner.SetDeadline(t.sys.clock.Now() + time.Until(dl))
	} else {
		t.inner.SetDeadline(0)
	}
	if ctx.Done() == nil {
		return t.inner.Perform(spec, role, prog)
	}

	done := make(chan struct{})
	var cancelled atomic.Bool
	go func() {
		select {
		case <-ctx.Done():
			cancelled.Store(true)
			_ = t.inner.Close()
		case <-done:
		}
	}()
	err := t.inner.Perform(spec, role, prog)
	close(done)
	if cancelled.Load() && errors.Is(err, ErrThreadStopped) {
		return &cancelledError{spec: spec.Name, role: role, cause: context.Cause(ctx)}
	}
	return err
}

// cancelledError reports a Perform unwound by context cancellation; it
// matches ErrThreadStopped (the mechanism) and the context cause (the
// reason) under errors.Is.
type cancelledError struct {
	spec, role string
	cause      error
}

func (e *cancelledError) Error() string {
	return fmt.Sprintf("caaction: %s/%s interrupted: %v", e.spec, e.role, e.cause)
}

func (e *cancelledError) Unwrap() []error { return []error{ErrThreadStopped, e.cause} }
