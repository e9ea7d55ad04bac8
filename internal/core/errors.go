package core

import (
	"errors"
	"fmt"

	"caaction/internal/except"
)

// SignalledError is the per-thread outcome of an action that terminated
// exceptionally: the exception ε the local role signalled to its caller or
// enclosing action. The interface exceptions µ (undo) and ƒ (failure) are
// represented with except.Undo and except.Failure.
type SignalledError struct {
	// Action is the action instance that signalled.
	Action string
	// Spec is the action's specification name.
	Spec string
	// Exc is the signalled exception.
	Exc except.ID
}

// ErrSignalled is the sentinel matched by errors.Is for every
// *SignalledError, regardless of which exception was signalled.
var ErrSignalled = errors.New("core: action signalled an exception")

// Is makes errors.Is(err, ErrSignalled) hold for any signalled outcome.
func (e *SignalledError) Is(target error) bool { return target == ErrSignalled }

// Error implements error.
func (e *SignalledError) Error() string {
	switch e.Exc {
	case except.Undo:
		return fmt.Sprintf("core: action %s aborted and undone (µ)", e.Action)
	case except.Failure:
		return fmt.Sprintf("core: action %s failed, effects possibly not undone (ƒ)", e.Action)
	default:
		return fmt.Sprintf("core: action %s signalled %q", e.Action, e.Exc)
	}
}

// Signalled extracts the SignalledError from err, if any.
func Signalled(err error) (*SignalledError, bool) { return asError[*SignalledError](err) }

// asError is errors.As for a target of type T without its allocation in the
// common case: an unwrapped err — the outcomes Perform and StartAction
// return, the control errors Context hands a body — is settled by a type
// assertion, and only a wrapped one pays for errors.As, whose target
// escapes. The target is declared past the early return, so it is allocated
// only on that path.
func asError[T error](err error) (T, bool) {
	if t, ok := err.(T); ok || err == nil {
		return t, ok
	}
	var t T
	return t, errors.As(err, &t)
}

// IsUndone reports whether err is an action outcome of µ: aborted with all
// effects undone.
func IsUndone(err error) bool {
	se, ok := Signalled(err)
	return ok && se.Exc == except.Undo
}

// IsFailed reports whether err is an action outcome of ƒ: aborted with
// effects possibly not undone.
func IsFailed(err error) bool {
	se, ok := Signalled(err)
	return ok && se.Exc == except.Failure
}

// Configuration and usage errors.
var (
	ErrSpecInvalid   = errors.New("core: invalid action spec")
	ErrNotYourRole   = errors.New("core: thread does not play this role")
	ErrUnknownRole   = errors.New("core: role not declared in spec")
	ErrBodyRequired  = errors.New("core: role program requires a body")
	ErrThreadStopped = errors.New("core: thread endpoint closed")
)

// pendingError is the internal control error family returned by Context
// operations to unwind a role body back to the runtime. Bodies must
// propagate any error they receive from Context methods; the runtime also
// re-checks frame state after a body returns, so a swallowed pendingError
// cannot corrupt the protocol (the body merely keeps running until its next
// Context call or its return).
//
// Each kind's error is bound once per pooled frame (see frame.raiseErr);
// an abort's target is set when the frame returns it.
type pendingError struct {
	kind  pendingKind
	frame *frame
	// target is the instance id of the enclosing action that triggered an
	// abort cascade (kindAbort only).
	target string
}

type pendingKind int

const (
	// kindRaise: the body raised an exception; resolution is pending.
	kindRaise pendingKind = iota + 1
	// kindInterrupt: the thread was informed of remote exceptions and is
	// suspended pending resolution.
	kindInterrupt
	// kindAbort: an enclosing action's exception aborts this and possibly
	// further nested actions.
	kindAbort
)

func (e *pendingError) Error() string {
	switch e.kind {
	case kindRaise:
		return fmt.Sprintf("core: exception raised in %s; resolution pending", e.frame.id)
	case kindInterrupt:
		return fmt.Sprintf("core: suspended in %s by concurrent exception", e.frame.id)
	case kindAbort:
		return fmt.Sprintf("core: aborting nested actions up to %s", e.target)
	default:
		return "core: pending"
	}
}

// abortError propagates an abort cascade across nested Perform frames; it
// carries the exception raised by the abortion handler of the level directly
// below the target action (Eab in §3.3.1) — handlers of deeper levels are
// deliberately ignored, per the algorithm. It is bound once per pooled
// frame, as the enclosing frame's childAbort: the aborted frame is released
// before its Enter reads the error.
type abortError struct {
	target string
	eab    except.ID
}

func (e *abortError) Error() string {
	return fmt.Sprintf("core: aborted up to %s (Eab=%q)", e.target, e.eab)
}
