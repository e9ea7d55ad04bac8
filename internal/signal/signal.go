// Package signal implements the paper's distributed exception-signalling
// algorithm (§3.4), which coordinates the interface exceptions that the
// roles of a nested CA action signal to their enclosing action.
//
// Each role broadcasts toBeSignalled(Ti, ε) where ε ∈ {φ, ε1, ε2, ..., µ, ƒ}.
// When a role holds every peer's vote it decides:
//
//	case 1: no µ or ƒ anywhere     → each role signals its own ε (or nothing);
//	case 2: µ present but no ƒ     → every role executes its undo operations
//	                                 and a second vote round follows: all µ if
//	                                 every undo succeeded, otherwise all ƒ;
//	case 3: ƒ present              → every role signals ƒ.
//
// Simple cases cost N(N−1) messages, the undo case 2N(N−1) — the bounds
// stated in the paper. The §3.4 extension for unreliable links is supported
// through MarkFailed: a lost or corrupted vote is treated as a vote for ƒ,
// so roles on healthy nodes still signal coordinated exceptions.
//
// The same exchange doubles as the prototype's "synchronous action exit
// protocol" (Fig. 8): no role decides before every role has voted.
//
// Instances serve one exit attempt of one action instance and are confined
// to their owning thread's event loop.
package signal

import (
	"errors"
	"fmt"
	"sync"

	"caaction/internal/except"
	"caaction/internal/protocol"
)

// Errors reported by Deliver.
var (
	ErrWrongAction = errors.New("signal: message for a different action")
	ErrWrongRound  = errors.New("signal: message for a different round")
	ErrUnexpected  = errors.New("signal: unexpected message type")
	ErrNotStarted  = errors.New("signal: Start not called")
)

// Config parameterises one signalling instance.
type Config struct {
	// Action is the action instance identifier stamped on messages.
	Action string
	// Self is this thread's identifier.
	Self string
	// Peers lists all participating threads, including Self.
	Peers []string
	// Round tags votes with the resolution round they conclude, so stale
	// votes from an exit attempt abandoned for a new exception round are
	// not confused with current ones.
	Round int
	// Send transmits one message; required.
	Send func(to string, msg protocol.Message)
	// Undo executes this thread's undo operations (restoring the external
	// objects it used); a non-nil error means the undo failed and ƒ must
	// be signalled. Required.
	Undo func() error
}

// Decision is the coordinated outcome for the local thread.
type Decision struct {
	// Done reports whether the decision below is final.
	Done bool
	// Signal is the exception this thread must signal to the enclosing
	// action: its own ε (possibly None), µ, or ƒ.
	Signal except.ID
	// UndoDone reports whether undo operations ran during coordination.
	UndoDone bool
}

// Instance is one thread's engine for one signalling exchange.
type Instance struct {
	cfg     Config
	own     except.ID
	started bool
	phase   int
	votes   [3]map[string]except.ID // indexed by phase (1, 2)
	undone  bool
	out     Decision
}

// pool recycles Instances across exit attempts: the signalling exchange
// runs once (often more) per action instance, so at high action churn the
// struct and its two vote maps are worth reusing. Release scrubs every
// field, so a pooled instance is indistinguishable from a fresh one.
var pool = sync.Pool{New: func() any {
	inst := &Instance{}
	inst.votes[1] = make(map[string]except.ID)
	inst.votes[2] = make(map[string]except.ID)
	return inst
}}

// New returns an instance ready for Start, possibly recycled via Release.
func New(cfg Config) *Instance {
	inst := pool.Get().(*Instance)
	inst.cfg = cfg
	inst.phase = 1
	return inst
}

// Release scrubs the instance and returns it to the package pool. Only the
// owning thread may call it, once the exchange has concluded or been
// abandoned, and it must drop every reference: the instance may be handed
// to any other exit attempt immediately.
func (s *Instance) Release() {
	s.cfg = Config{}
	s.own = except.None
	s.started = false
	s.phase = 0
	clear(s.votes[1])
	clear(s.votes[2])
	s.undone = false
	s.out = Decision{}
	pool.Put(s)
}

// Start casts this thread's vote: the exception it would signal on its own
// (None for φ). It may already return a final decision when every peer's
// vote arrived before the local one.
func (s *Instance) Start(own except.ID) Decision {
	s.own = own
	s.started = true
	s.votes[1][s.cfg.Self] = own
	s.broadcast(own, 1)
	s.evaluate()
	return s.out
}

// Deliver feeds one peer vote, a ToBeSignalled message, into the exchange.
// Any other kind, a vote for another action or round, or one with a phase
// other than 1 or 2 is rejected.
func (s *Instance) Deliver(from string, m *protocol.Message) (Decision, error) {
	if m.Kind != protocol.KindToBeSignalled {
		return Decision{}, fmt.Errorf("%w: %v", ErrUnexpected, m.Kind)
	}
	if m.Action != s.cfg.Action {
		return Decision{}, fmt.Errorf("%w: got %q want %q", ErrWrongAction, m.Action, s.cfg.Action)
	}
	if m.Round != s.cfg.Round {
		return Decision{}, fmt.Errorf("%w: got %d want %d", ErrWrongRound, m.Round, s.cfg.Round)
	}
	if m.Phase < 1 || m.Phase > 2 {
		return Decision{}, fmt.Errorf("%w: phase %d", ErrUnexpected, m.Phase)
	}
	s.votes[m.Phase][from] = m.Exc.ID
	s.evaluate()
	return s.out, nil
}

// MarkFailed records ƒ on behalf of threads whose votes were lost or
// corrupted (the §3.4 fault-tolerance extension), letting the remaining
// threads still reach a coordinated decision.
func (s *Instance) MarkFailed(threads ...string) Decision {
	for _, id := range threads {
		if _, ok := s.votes[s.phase][id]; !ok {
			s.votes[s.phase][id] = except.Failure
		}
	}
	s.evaluate()
	return s.out
}

// Done reports whether the exchange has concluded locally.
func (s *Instance) Done() bool { return s.out.Done }

// Missing lists the peers whose vote for the current phase has not arrived,
// for the lost-message extension: the runtime marks them failed after a
// timeout.
func (s *Instance) Missing() []string {
	var out []string
	for _, p := range s.cfg.Peers {
		if _, ok := s.votes[s.phase][p]; !ok {
			out = append(out, p)
		}
	}
	return out
}

// broadcast sends one vote to every peer.
func (s *Instance) broadcast(exc except.ID, phase int) {
	vote := protocol.Message{
		Kind:   protocol.KindToBeSignalled,
		Action: s.cfg.Action,
		From:   s.cfg.Self,
		Exc:    except.Raised{ID: exc},
		Round:  s.cfg.Round,
		Phase:  phase,
	}
	for _, p := range s.cfg.Peers {
		if p != s.cfg.Self {
			s.cfg.Send(p, vote)
		}
	}
}

func (s *Instance) evaluate() {
	if s.out.Done || !s.started || len(s.votes[s.phase]) != len(s.cfg.Peers) {
		return
	}
	hasUndo, hasFailure := false, false
	for _, v := range s.votes[s.phase] {
		switch v {
		case except.Undo:
			hasUndo = true
		case except.Failure:
			hasFailure = true
		}
	}
	switch {
	case hasFailure:
		// Case 3: someone cannot guarantee its effects are undone; every
		// role must signal ƒ.
		s.out = Decision{Done: true, Signal: except.Failure, UndoDone: s.undone}

	case hasUndo && s.phase == 1:
		// Case 2, first encounter: all roles execute undo operations,
		// then vote again with µ (success) or ƒ (undo failed).
		s.undone = true
		next := except.Undo
		if err := s.cfg.Undo(); err != nil {
			next = except.Failure
		}
		s.phase = 2
		s.votes[2][s.cfg.Self] = next
		s.broadcast(next, 2)
		s.evaluate() // peers' phase-2 votes may already be in

	case hasUndo:
		// Case 2, second round: µ everywhere (any ƒ was caught above).
		s.out = Decision{Done: true, Signal: except.Undo, UndoDone: s.undone}

	default:
		// Case 1: no coordination needed; each role signals its own
		// exception (or nothing).
		s.out = Decision{Done: true, Signal: s.own, UndoDone: s.undone}
	}
}
