package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caaction/internal/except"
	"caaction/internal/resolve"
)

// Role binds one role name of a CA action to the thread that performs it.
// The paper's model requires every participating thread to know the full
// participant set statically (§3.3.1), so the binding is part of the Spec.
type Role struct {
	// Name is the role's name within the action.
	Name string
	// Thread is the identifier of the thread performing the role.
	Thread string
}

// Timing models the paper's experimental cost parameters for one action.
type Timing struct {
	// Resolution is Treso: the modelled cost of one run of the resolution
	// procedure.
	Resolution time.Duration
	// Abortion is Tabo: the modelled cost of one abortion handler run.
	Abortion time.Duration
	// SignalTimeout bounds this action's wait for exit votes, overriding
	// the runtime-wide default. Missing votes are treated as ƒ (the §3.4
	// lost-message extension). Inner actions should use shorter timeouts
	// than outer ones so that a genuine loss is detected at the level
	// where it happened before any enclosing exit gives up. Zero inherits
	// the runtime default.
	SignalTimeout time.Duration
}

// Spec declares a CA action: its roles (with thread bindings), the exception
// graph shared by all roles (§3.1: "the set e of exceptions for a CA action
// is identical for each role"), and the interface exceptions the action may
// signal.
//
// A Spec is validated once and then treated as immutable: the first
// successful Validate (every Perform calls it) caches the verdict and the
// sorted participant set, and the Spec is shared by every concurrent
// instance performing it. Do not mutate a Spec's fields after it has been
// used — later Performs would see the stale cache — and do not copy a Spec
// by value (it contains the cache's lock; share the pointer, which is what
// SpecBuilder.Build returns). Failed validations are not cached, so an
// invalid Spec may be corrected and retried.
type Spec struct {
	// Name identifies the action; instance identifiers derive from it.
	Name string
	// Roles lists the action's roles in order; one thread per role.
	Roles []Role
	// Graph is the action's exception graph used for resolution.
	Graph *except.Graph
	// Signals lists the interface exceptions ε the action may signal to
	// its enclosing action or caller. µ and ƒ are implicitly allowed. A
	// resolved exception without a handler is signalled directly when
	// listed here, and converted to µ otherwise.
	Signals []except.ID
	// Timing carries the modelled protocol costs.
	Timing Timing

	// prep caches the first SUCCESSFUL Validate and the sorted participant
	// set. Specs are shared immutably across concurrent action instances
	// (the load harness reuses one Spec for thousands), so re-validating
	// and re-sorting per Perform would be pure hot-path waste. Failures
	// are not cached — an invalid spec can be fixed and retried. A Spec
	// mutated after a successful Validate keeps the stale verdict — build
	// specs once (SpecBuilder does).
	prep struct {
		done    atomic.Bool
		mu      sync.Mutex
		threads []string
	}
}

// Validate checks structural invariants of the spec. The first successful
// verdict is cached; see Spec.prep.
func (s *Spec) Validate() error {
	if s.prep.done.Load() {
		return nil
	}
	s.prep.mu.Lock()
	defer s.prep.mu.Unlock()
	if s.prep.done.Load() {
		return nil
	}
	if err := s.validate(); err != nil {
		return err
	}
	threads := s.Threads()
	resolve.SortThreads(threads)
	s.prep.threads = threads
	s.prep.done.Store(true)
	return nil
}

// sortedThreads returns the participating threads sorted by
// resolve.ThreadLess, cached by Validate. Callers must not mutate the
// returned slice (frames share it).
func (s *Spec) sortedThreads() []string {
	_ = s.Validate()
	return s.prep.threads
}

func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("%w: empty name", ErrSpecInvalid)
	}
	if strings.ContainsAny(s.Name, "!/") {
		// '/' separates nesting levels and '!' terminates the mux instance
		// tag in action-instance identifiers; a name containing either
		// would make identifiers ambiguous on the wire.
		return fmt.Errorf("%w: name %q contains a reserved character ('!' or '/')", ErrSpecInvalid, s.Name)
	}
	if len(s.Roles) == 0 {
		return fmt.Errorf("%w: %s has no roles", ErrSpecInvalid, s.Name)
	}
	if s.Graph == nil {
		return fmt.Errorf("%w: %s has no exception graph", ErrSpecInvalid, s.Name)
	}
	names := make(map[string]bool, len(s.Roles))
	threads := make(map[string]bool, len(s.Roles))
	for _, r := range s.Roles {
		if r.Name == "" || r.Thread == "" {
			return fmt.Errorf("%w: %s has an unbound role", ErrSpecInvalid, s.Name)
		}
		if names[r.Name] {
			return fmt.Errorf("%w: %s duplicates role %q", ErrSpecInvalid, s.Name, r.Name)
		}
		if threads[r.Thread] {
			return fmt.Errorf("%w: %s binds thread %q twice", ErrSpecInvalid, s.Name, r.Thread)
		}
		names[r.Name] = true
		threads[r.Thread] = true
	}
	for _, sig := range s.Signals {
		if sig == except.None {
			return fmt.Errorf("%w: %s declares φ as a signal", ErrSpecInvalid, s.Name)
		}
	}
	if s.Timing.Resolution < 0 || s.Timing.Abortion < 0 || s.Timing.SignalTimeout < 0 {
		return fmt.Errorf("%w: %s has negative timing", ErrSpecInvalid, s.Name)
	}
	return nil
}

// ThreadFor returns the thread bound to a role.
func (s *Spec) ThreadFor(role string) (string, bool) {
	for _, r := range s.Roles {
		if r.Name == role {
			return r.Thread, true
		}
	}
	return "", false
}

// RoleOf returns the role a thread plays.
func (s *Spec) RoleOf(thread string) (string, bool) {
	for _, r := range s.Roles {
		if r.Thread == thread {
			return r.Name, true
		}
	}
	return "", false
}

// Threads returns the participating thread identifiers.
func (s *Spec) Threads() []string {
	out := make([]string, len(s.Roles))
	for i, r := range s.Roles {
		out[i] = r.Thread
	}
	return out
}

// CanSignal reports whether ε may be signalled from this action (µ and ƒ
// always may).
func (s *Spec) CanSignal(id except.ID) bool {
	if id == except.Undo || id == except.Failure {
		return true
	}
	for _, sig := range s.Signals {
		if sig == id {
			return true
		}
	}
	return false
}

// UndoneExc is the exception raised in an enclosing action when this nested
// action signals µ — the paper's ε_nested ⊆ e_enclosing mapping for the
// reserved interface exceptions.
func (s *Spec) UndoneExc() except.ID { return except.ID(s.Name + ".undone") }

// FailedExc is the enclosing-context exception for a nested ƒ.
func (s *Spec) FailedExc() except.ID { return except.ID(s.Name + ".failed") }

// Body is a role's normal computation. Bodies receive a Context for
// cooperation, nesting, exception raising and external-object access, and
// must propagate any error returned by Context methods.
type Body func(ctx *Context) error

// Handler is a role's handler for one resolved exception. Returning nil
// completes the action (successfully or signalling the ε set through
// Context.Signal); returning the error from Context.Raise starts a new
// resolution round.
type Handler func(ctx *Context, resolved except.ID, raised []except.Raised) error

// AbortHandler runs when an enclosing action's exception aborts this nested
// action. It returns the exception to raise in the aborted-into action
// (§3.3.1's Eab), or except.None to suspend instead. Only the handler of the
// outermost aborted level contributes its Eab.
type AbortHandler func(ctx *Context) except.ID

// RoleProgram is the code one thread contributes to an action: the role's
// body, its handlers (one per exception it can handle — different roles may
// handle the same exception differently, §3.1), and its abortion handler.
type RoleProgram struct {
	Body     Body
	Handlers map[except.ID]Handler
	// OnAbort is optional; when nil an abort suspends silently after
	// undoing this role's external-object effects.
	OnAbort AbortHandler
}
