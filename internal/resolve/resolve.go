// Package resolve implements the distributed concurrent-exception resolution
// protocols compared in the paper:
//
//   - Coordinated — the paper's own algorithm (§3.3.2): raisers broadcast
//     Exception, informed threads broadcast Suspended, and exactly one
//     thread — the one with the largest identifier among those in the
//     exceptional state — performs resolution and broadcasts Commit. Message
//     count per resolution: (N+1)(N−1), independent of how many exceptions
//     were raised concurrently.
//
//   - CR86 — a message-level model of Campbell & Randell's 1986 scheme as
//     the paper models it for its comparison experiments: every first-hand
//     exception is relayed by each receiver to all other threads, the
//     resolution procedure runs at every thread on every relay received, and
//     an agreement round confirms the result. O(N³) messages.
//
//   - R96 — a model of the authors' earlier algorithm (Romanovsky et al.
//     1996): three all-to-all rounds (exceptions/suspensions, proposals,
//     acknowledgements) with every thread resolving, 3N(N−1) messages.
//
// A protocol instance handles exactly one resolution round of one action
// instance; the runtime takes an instance per round and releases it when
// the round is decided. Instances are confined to their owning thread's
// event loop and are not safe for concurrent use.
package resolve

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"caaction/internal/except"
	"caaction/internal/protocol"
)

// State is a participating thread's state as seen by the resolution
// protocols (§3.3.1).
type State int

// Thread states.
const (
	// StateNormal is N: executing its normal computation.
	StateNormal State = iota + 1
	// StateExceptional is X: the thread raised an exception this round.
	StateExceptional
	// StateSuspended is S: the thread halted normal computation because of
	// exceptions raised elsewhere.
	StateSuspended
)

func (s State) String() string {
	switch s {
	case StateNormal:
		return "N"
	case StateExceptional:
		return "X"
	case StateSuspended:
		return "S"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config parameterises one protocol instance.
type Config struct {
	// Action is the action-instance identifier stamped on messages.
	Action string
	// Self is this thread's identifier.
	Self string
	// Peers lists every participating thread including Self.
	Peers []string
	// Round is the resolution round this instance serves.
	Round int
	// Send transmits a message to one peer; supplied by the runtime.
	Send func(to string, msg protocol.Message)
	// Resolve runs the resolution procedure over the collected exceptions,
	// returning the resolving exception. The runtime's implementation
	// consults the action's exception graph and models the paper's Treso
	// cost; protocols call it once or many times depending on their design,
	// which is exactly what experiment E2 measures.
	Resolve func(raised []except.Raised) except.ID
}

// Outcome reports the externally visible effects of feeding an instance one
// event.
type Outcome struct {
	// Informed is true when the thread has just learnt of remote trouble
	// and must halt its normal computation (N → S) if still running.
	Informed bool
	// Decided is true when the resolving exception is known locally;
	// Resolved and Raised are then valid.
	Decided  bool
	Resolved except.ID
	// Raised is the set of concurrently raised exceptions covered by
	// Resolved (available to handlers for diagnosis).
	Raised []except.Raised
}

// Instance is one thread's engine for one resolution round.
type Instance interface {
	// Raise processes a local raise by this thread (state → X).
	Raise(exc except.Raised) Outcome
	// Deliver processes a protocol message for this round.
	Deliver(from string, msg protocol.Message) (Outcome, error)
	// State reports the local thread's protocol state.
	State() State
}

// Release ends inst's round: the protocol may recycle the instance for a
// later round. Only the owning thread may call it, once, and it must drop
// every reference to the instance; an Outcome already returned stays
// valid. Instances this package does not recycle, a wrapper's included,
// are left to the garbage collector.
func Release(inst Instance) {
	if r, ok := inst.(interface{ release() }); ok {
		r.release()
	}
}

// Protocol manufactures per-round instances.
type Protocol interface {
	// Name identifies the protocol in metrics and experiment output.
	Name() string
	// NewInstance returns an engine for one round; cfg.Send and cfg.Resolve
	// must be non-nil.
	NewInstance(cfg Config) Instance
}

// Errors returned by Deliver.
var (
	ErrWrongRound  = errors.New("resolve: message for a different round")
	ErrWrongAction = errors.New("resolve: message for a different action")
	ErrUnexpected  = errors.New("resolve: unexpected message type")
	// ErrNotPeer reports a message from, or about, a thread that is not
	// one of the round's participants (Config.Peers).
	ErrNotPeer = errors.New("resolve: sender is not a participant")
)

// ThreadLess orders thread identifiers the way the paper orders threads
// ("thread names and the lexicographic ordering could be used"): shorter
// names first, then lexicographic, so T2 < T10 as intended with numeric
// suffixes.
func ThreadLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// SortThreads sorts thread identifiers by ThreadLess.
func SortThreads(ids []string) {
	sort.Slice(ids, func(i, j int) bool { return ThreadLess(ids[i], ids[j]) })
}

// broadcast sends msg to every peer except self.
func broadcast(cfg *Config, msg protocol.Message) {
	for _, p := range cfg.Peers {
		if p != cfg.Self {
			cfg.Send(p, msg)
		}
	}
}

// entry is one participant's contribution to the LE list (§3.3.1): either a
// raised exception (state X) or a suspension notice (state S). The zero entry
// marks a participant not yet accounted for.
type entry struct {
	state State
	exc   except.Raised
}

// roundState is what every protocol instance keeps for its round: the
// config, the local thread's state, the decision once known, and the LE
// list — one entry per participant, indexed by its position in cfg.Peers.
// Rounds of up to len(first) participants keep the list inside the
// instance; larger rounds allocate it once.
type roundState struct {
	cfg     Config
	state   State
	self    int // Self's position in cfg.Peers
	known   int // participants accounted for in entries
	entries []entry
	first   [8]entry
	decided bool
	out     Outcome
}

func (r *roundState) init(cfg Config) {
	r.cfg = cfg
	r.state = StateNormal
	r.self = slices.Index(cfg.Peers, cfg.Self)
	if r.self < 0 {
		panic(fmt.Sprintf("resolve: Self %q is not in Peers %v", cfg.Self, cfg.Peers))
	}
	if n := len(cfg.Peers); n <= len(r.first) {
		r.entries = r.first[:n]
	} else {
		r.entries = make([]entry, n)
	}
}

// State implements Instance.
func (r *roundState) State() State { return r.state }

// sender checks a message's action and round tags and returns the position
// of the thread it is from (or about) in cfg.Peers. A thread outside the
// round is refused: it would take an LE-list slot no participant owns.
func (r *roundState) sender(from, action string, round int) (int, error) {
	if action != r.cfg.Action {
		return -1, fmt.Errorf("%w: got %q want %q", ErrWrongAction, action, r.cfg.Action)
	}
	if round != r.cfg.Round {
		return -1, fmt.Errorf("%w: got %d want %d", ErrWrongRound, round, r.cfg.Round)
	}
	return r.peer(from)
}

// peer returns id's position in cfg.Peers, or ErrNotPeer.
func (r *roundState) peer(id string) (int, error) {
	i := slices.Index(r.cfg.Peers, id)
	if i < 0 {
		return -1, fmt.Errorf("%w: %q in %s round %d", ErrNotPeer, id, r.cfg.Action, r.cfg.Round)
	}
	return i, nil
}

// record enters participant i's contribution to the LE list; a later
// contribution replaces an earlier one.
func (r *roundState) record(i int, e entry) {
	if r.entries[i].state == 0 {
		r.known++
	}
	r.entries[i] = e
}

// complete reports whether every participant is accounted for.
func (r *roundState) complete() bool { return r.known == len(r.entries) }

// largerExceptional counts the participants in state X that order after
// Self.
func (r *roundState) largerExceptional() int {
	n := 0
	for i, e := range r.entries {
		if e.state == StateExceptional && i != r.self && ThreadLess(r.cfg.Self, r.cfg.Peers[i]) {
			n++
		}
	}
	return n
}

// raisedSet collects the raised exceptions in deterministic (thread) order.
func (r *roundState) raisedSet() []except.Raised {
	n := 0
	for _, e := range r.entries {
		if e.state == StateExceptional {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]except.Raised, 0, n)
	for _, e := range r.entries {
		if e.state == StateExceptional {
			out = append(out, e.exc)
		}
	}
	return out
}

// raise processes a local raise: state X, the local LE-list entry, and the
// Exception broadcast.
func (r *roundState) raise(exc except.Raised) {
	r.state = StateExceptional
	r.record(r.self, entry{state: StateExceptional, exc: exc})
	broadcast(&r.cfg, protocol.Message{Kind: protocol.KindException,
		Action: r.cfg.Action, From: r.cfg.Self, Round: r.cfg.Round, Exc: exc,
	})
}

// suspendIfNormal implements the "if S(Ti) = N then suspend and broadcast
// Suspended" branch; it reports whether the thread was just informed.
func (r *roundState) suspendIfNormal() bool {
	if r.state != StateNormal {
		return false
	}
	r.state = StateSuspended
	r.record(r.self, entry{state: StateSuspended})
	broadcast(&r.cfg, protocol.Message{Kind: protocol.KindSuspended,
		Action: r.cfg.Action, From: r.cfg.Self, Round: r.cfg.Round,
	})
	return true
}

// decide records the round's decision; the first one sticks.
func (r *roundState) decide(resolved except.ID, raised []except.Raised) {
	if !r.decided {
		r.decided = true
		r.out = Outcome{Decided: true, Resolved: resolved, Raised: raised}
	}
}

func (r *roundState) outcome(informed bool) Outcome {
	if !r.decided {
		return Outcome{Informed: informed}
	}
	out := r.out
	out.Informed = informed
	return out
}
