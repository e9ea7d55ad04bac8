// Package protocol defines the wire messages exchanged by the CA-action
// runtime: the resolution-protocol messages of §3.3.2 (Exception, Suspended,
// Commit), the baseline protocols' messages (Relay for Campbell & Randell
// 1986, Propose/Ack for Romanovsky et al. 1996), the signalling message of
// §3.4 (ToBeSignalled), and runtime coordination messages (Enter, App).
//
// Every message carries its Kind, which the transports use to count traffic
// per message type so the paper's complexity theorems can be checked against
// measured counts.
//
// # Action-instance identifiers
//
// Every message carries the identifier of the action instance it belongs to
// in its Action field. Identifiers are hierarchical: a nested action's
// identifier is its parent's identifier, '/', the spec name and a per-parent
// sequence number ("outer#1/inner#2"), and every identifier starts with a
// mux instance tag terminated by '!' ("a7!transfer#1/leg#1"): the tag names
// one top-level action instance multiplexed over a shared transport
// endpoint, and the demultiplexer (internal/transport.Mux) routes inbound
// messages by it. Tags never contain '!' or '/', and spec names may contain
// neither (core.Spec.Validate enforces this), so InstanceOf is unambiguous.
package protocol

import (
	"encoding/gob"
	"fmt"
	"strings"

	"caaction/internal/except"
)

// Message is one protocol message, a value: Kind says which of the nine
// message types it is, and each kind uses the fields listed for it below —
// the others stay zero. Messages are passed by value through every send,
// route and resolution step, so none is ever boxed on the heap; a message
// is immutable once sent (Raised and Payload are shared, never written).
//
// Round tags the resolution round within the action instance (the number of
// Commits already processed). The paper's algorithm leaves messages of
// successive rounds distinguishable only by FIFO order, which admits a race
// when a handler raises immediately after a Commit whose delivery to some
// peer is still in flight; explicit round numbers close it without changing
// any message count. All resolution-protocol messages carry the same tag.
//
// The kinds:
//
//   - Exception(Action, From, Round, Exc): a thread raised Exc (§3.3.2:
//     "Exception(A, Ti, E)").
//   - Suspended(Action, From, Round): a thread that raised nothing itself
//     has learnt of others' exceptions (§3.3.2: "Suspended(A, Ti, S)").
//   - Commit(Action, From, Round, Resolved, Raised): the resolving thread's
//     decision; every receiver handles Resolved (§3.3.2: "Commit(A, E)").
//     Raised carries the resolved set for diagnostics and handler context.
//   - Relay(Action, From, Round, Exc): the CR-86 baseline only — each
//     thread forwards every first-hand exception it learns to all others,
//     the O(N³) pattern the paper attributes to Campbell & Randell.
//   - Propose(Action, From, Round, Resolved): the R-96 baseline's agreement
//     round, every thread broadcasting the exception it resolved locally.
//   - Ack(Action, From, Round): the R-96 baseline's final round.
//   - ToBeSignalled(Action, From, Exc.ID, Round, Phase): the §3.4
//     signalling vote — From will signal Exc.ID (except.None for φ) to the
//     enclosing action. Phase distinguishes the second exchange forced by
//     an undo (µ) vote whose undo operations may fail.
//   - Enter(Action, From, Role): From has arrived at the action's entry
//     point playing Role; the barrier completes when a thread has received
//     Enter from every peer.
//   - App(Action, From, Role, Payload): application cooperation data for
//     the thread playing Role. Payloads outside the codec's fast-path
//     types must be gob-registered to cross the TCP transport.
type Message struct {
	Kind   Kind
	Action string // action instance identifier
	From   string // sending thread
	Round  int
	Phase  int
	// Exc is the raised exception (Exception, Relay); a ToBeSignalled vote
	// uses its ID only.
	Exc      except.Raised
	Resolved except.ID
	Raised   []except.Raised
	// Role is the sender's role (Enter) or the receiver's (App).
	Role    string
	Payload any
}

// String renders the message as it appears in logs: the paper's notation
// for the resolution and signalling messages, the plain field list for the
// others.
func (m Message) String() string {
	switch m.Kind {
	case KindException:
		return fmt.Sprintf("Exception(%s, %s, %s)", m.Action, m.From, m.Exc.ID)
	case KindSuspended:
		return fmt.Sprintf("Suspended(%s, %s)", m.Action, m.From)
	case KindCommit:
		return fmt.Sprintf("Commit(%s, %s)", m.Action, m.Resolved)
	case KindRelay:
		return fmt.Sprintf("{%v %v %v %v}", m.Action, m.From, m.Round, m.Exc)
	case KindPropose:
		return fmt.Sprintf("{%v %v %v %v}", m.Action, m.From, m.Round, m.Resolved)
	case KindAck:
		return fmt.Sprintf("{%v %v %v}", m.Action, m.From, m.Round)
	case KindToBeSignalled:
		exc := string(m.Exc.ID)
		if m.Exc.ID == except.None {
			exc = "φ"
		}
		return fmt.Sprintf("toBeSignalled(%s, %s, %s, r%d)", m.Action, m.From, exc, m.Round)
	case KindEnter:
		return fmt.Sprintf("{%v %v %v}", m.Action, m.From, m.Role)
	case KindApp:
		return fmt.Sprintf("{%v %v %v %v}", m.Action, m.From, m.Role, m.Payload)
	default:
		return m.Kind.String()
	}
}

// InstanceOf extracts the mux instance tag from an action-instance
// identifier: the prefix before the first '!', or "" when there is none.
func InstanceOf(action string) string {
	if i := strings.IndexByte(action, '!'); i >= 0 {
		return action[:i]
	}
	return ""
}

// TagInstance prefixes an action-instance identifier with a mux instance
// tag. It panics on tags containing the reserved characters '!' or '/' —
// tag construction is programmatic, so a bad tag is a wiring bug.
func TagInstance(tag, action string) string {
	if strings.ContainsAny(tag, "!/") {
		panic(fmt.Sprintf("protocol: instance tag %q contains a reserved character", tag))
	}
	return tag + "!" + action
}

// RegisterGob registers the message type with encoding/gob, so a message
// can ride inside a gob-encoded value. Safe to call multiple times.
func RegisterGob() {
	gob.Register(Message{})
}
