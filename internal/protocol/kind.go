package protocol

import "strconv"

// Kind is the type of a protocol message. The nine kinds are dense small
// integers, so hot paths (per-send metric counters, the binary codec's tag
// byte, per-kind log labels) key fixed-size arrays by them instead of
// building strings per message.
type Kind uint8

// The nine message kinds; Message documents the fields each one uses.
const (
	KindException Kind = iota
	KindSuspended
	KindCommit
	KindRelay
	KindPropose
	KindAck
	KindToBeSignalled
	KindEnter
	KindApp
)

// NumKinds is the number of protocol message kinds.
const NumKinds = int(KindApp) + 1

// KindNames maps a kind to its name.
var KindNames = [NumKinds]string{
	KindException:     "Exception",
	KindSuspended:     "Suspended",
	KindCommit:        "Commit",
	KindRelay:         "Relay",
	KindPropose:       "Propose",
	KindAck:           "Ack",
	KindToBeSignalled: "ToBeSignalled",
	KindEnter:         "Enter",
	KindApp:           "App",
}

// MetricNames maps a kind to its interned per-kind metric name
// ("msg.<Kind>"), so transports never rebuild the string per send.
var MetricNames = [NumKinds]string{
	KindException:     "msg.Exception",
	KindSuspended:     "msg.Suspended",
	KindCommit:        "msg.Commit",
	KindRelay:         "msg.Relay",
	KindPropose:       "msg.Propose",
	KindAck:           "msg.Ack",
	KindToBeSignalled: "msg.ToBeSignalled",
	KindEnter:         "msg.Enter",
	KindApp:           "msg.App",
}

// Valid reports whether k is one of the nine kinds.
func (k Kind) Valid() bool { return int(k) < NumKinds }

// Resolution reports whether k belongs to a resolution round (Exception,
// Suspended, Commit, Relay, Propose, Ack): the kinds the resolution
// protocols consume, routed by their Round tag.
func (k Kind) Resolution() bool { return k <= KindAck }

// String returns the kind's name, or "Kind(n)" for an invalid kind.
func (k Kind) String() string {
	if k.Valid() {
		return KindNames[k]
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// KindLabels precomputes "<prefix><Kind>" for every kind, for transports
// that log per-kind event labels ("send.", "drop.", ...) without a per-send
// concatenation.
func KindLabels(prefix string) [NumKinds]string {
	var out [NumKinds]string
	for i, name := range KindNames {
		out[i] = prefix + name
	}
	return out
}
