package caaction

import (
	"errors"
	"fmt"

	"caaction/internal/core"
	"caaction/internal/transport"
)

// SignalledError is the per-thread outcome of an action that terminated
// exceptionally: the exception ε the local role signalled to its caller or
// enclosing action, with µ (undo) and ƒ (failure) represented by the Undo
// and Failure identifiers. It supports errors.As directly and matches the
// ErrSignalled sentinel under errors.Is.
type SignalledError = core.SignalledError

// Sentinel errors reported by the runtime. All are matched with errors.Is.
var (
	// ErrSignalled matches any exceptional action outcome, regardless of
	// which exception was signalled; use AsSignalled (or errors.As with a
	// *SignalledError) to inspect it.
	ErrSignalled = core.ErrSignalled
	// ErrSpecInvalid reports a structurally invalid action spec.
	ErrSpecInvalid = core.ErrSpecInvalid
	// ErrNotYourRole reports a Perform by a thread the role is not bound to.
	ErrNotYourRole = core.ErrNotYourRole
	// ErrUnknownRole reports a role name the spec does not declare.
	ErrUnknownRole = core.ErrUnknownRole
	// ErrBodyRequired reports a RoleProgram without a body.
	ErrBodyRequired = core.ErrBodyRequired
	// ErrThreadStopped reports that the thread's endpoint closed mid-action
	// (thread shutdown, or a Perform context cancellation).
	ErrThreadStopped = core.ErrThreadStopped
	// ErrRecvTimeout is returned by Context.RecvTimeout when no matching
	// cooperation message arrives in time.
	ErrRecvTimeout = core.ErrTimeout
	// ErrUnreachable matches a send to a thread address the transport
	// cannot route — on a cluster node (WithCluster), a thread no live
	// node currently hosts. Role bodies observe it from Context.Send when
	// the hosting node is down; it clears once the peer directory learns a
	// live address again.
	ErrUnreachable = transport.ErrUnknownAddr
	// ErrPeerStalled matches a cross-node send refused because the peer
	// node's credit window is exhausted and the bounded pending buffer for
	// that peer is full — the peer has stopped consuming (stalled process,
	// partition) and backpressure has reached this node. The refusal is
	// typed and instantaneous, never a hang; sends recover as soon as the
	// peer drains and grants again. Only cluster nodes with the batched
	// fast path enabled (the default) observe it; each refusal also counts
	// the tcp.credit_stalls metric.
	ErrPeerStalled = transport.ErrPeerStalled
	// ErrDeadline matches a role outcome abandoned because the deadline of
	// the ctx passed to StartAction (or Thread.Perform) expired mid-action:
	// protocol waits are clamped to the propagated deadline, local effects
	// are undone best-effort and the doomed role unwinds instead of
	// consuming budget. It also matches context.DeadlineExceeded under
	// errors.Is. A deadline that expires during the exit exchange instead
	// yields a coordinated ƒ outcome (the §3.4 lost-message treatment).
	ErrDeadline = core.ErrDeadline
)

// ErrOverloaded is the typed fast-reject StartAction, StartTagged and
// Thread return when admission control (WithMaxInFlight, WithTenantBudget)
// refuses new work: the in-flight budget is exhausted. The refusal is
// instantaneous — no endpoints are opened, no goroutines started — so
// callers can shed or re-route load at line rate. Use errors.As with a
// *OverloadedError to see which budget (global or per-tenant) was hit.
var ErrOverloaded = errors.New("caaction: overloaded")

// OverloadedError carries the admission-control refusal detail: the budget
// that was exhausted and, for a per-tenant refusal, the tenant. It matches
// ErrOverloaded under errors.Is.
type OverloadedError struct {
	// Limit is the budget that was full (WithMaxInFlight's limit for a
	// global refusal, WithTenantBudget's for a tenant refusal).
	Limit int
	// Tenant is the refused tenant ("" for a global-budget refusal).
	Tenant string
}

// Error implements error.
func (e *OverloadedError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("caaction: overloaded: tenant %q at its budget of %d in-flight actions", e.Tenant, e.Limit)
	}
	return fmt.Sprintf("caaction: overloaded: %d actions in flight", e.Limit)
}

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// AsSignalled extracts the SignalledError from err, if any.
func AsSignalled(err error) (*SignalledError, bool) { return core.Signalled(err) }

// IsUndone reports whether err is an action outcome of µ: aborted with all
// effects undone.
func IsUndone(err error) bool { return core.IsUndone(err) }

// IsFailed reports whether err is an action outcome of ƒ: aborted with
// effects possibly not undone.
func IsFailed(err error) bool { return core.IsFailed(err) }
