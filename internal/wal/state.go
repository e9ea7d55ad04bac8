package wal

import (
	"maps"
	"sort"
)

// ActionKey identifies one participant's view of one action instance.
type ActionKey struct {
	Thread string
	Action string
}

// ActionState is the replayed protocol state of one (thread, action) pair:
// everything the restart decision rule in §3.4 terms needs — when the
// thread joined, how far resolution progressed, and whether the action
// concluded locally.
type ActionState struct {
	// Role the thread joined under.
	Role string
	// JoinedWall is the KindJoin record's timestamp (nanoseconds).
	JoinedWall int64
	// Raises and Votes count the protocol records replayed.
	Raises int
	Votes  int
	// LastRound is the highest resolution round seen in a raise or vote.
	LastRound int
	// LastExc is the most recent raised or voted exception.
	LastExc string
	// Outcome is "" while the action is in flight; otherwise the final
	// classification from the KindOutcome record.
	Outcome string
	// OutcomeWall is the KindOutcome record's timestamp.
	OutcomeWall int64
}

// InstanceState is the replayed state of one tagged cluster instance.
type InstanceState struct {
	// Kind is the load workload kind the instance ran.
	Kind string
	// Roles is the cluster-wide role count.
	Roles int
	// StartedWall is the KindInstanceStart record's timestamp.
	StartedWall int64
	// Done reports a KindInstanceDone record was replayed.
	Done bool
}

// State is the materialised view of a WAL: replaying records folds into
// it, and a snapshot record carries one verbatim.
type State struct {
	Actions   map[ActionKey]ActionState
	Instances map[string]InstanceState
}

// NewState returns an empty state ready to apply records.
func NewState() State {
	return State{
		Actions:   make(map[ActionKey]ActionState),
		Instances: make(map[string]InstanceState),
	}
}

// Apply folds one record into the state. KindSnapshot records are handled
// by the replay loop (they *replace* the state), not here.
func (s *State) Apply(r Record) {
	switch r.Kind {
	case KindJoin:
		k := ActionKey{Thread: r.Thread, Action: r.Action}
		as := s.Actions[k]
		as.Role = r.Role
		as.JoinedWall = r.Wall
		s.Actions[k] = as
	case KindRaise:
		k := ActionKey{Thread: r.Thread, Action: r.Action}
		as := s.Actions[k]
		as.Raises++
		if r.Round > as.LastRound {
			as.LastRound = r.Round
		}
		as.LastExc = r.Exc
		s.Actions[k] = as
	case KindVote:
		k := ActionKey{Thread: r.Thread, Action: r.Action}
		as := s.Actions[k]
		as.Votes++
		if r.Round > as.LastRound {
			as.LastRound = r.Round
		}
		if r.Exc != "" {
			as.LastExc = r.Exc
		}
		s.Actions[k] = as
	case KindOutcome:
		k := ActionKey{Thread: r.Thread, Action: r.Action}
		as := s.Actions[k]
		as.Outcome = r.Outcome
		as.OutcomeWall = r.Wall
		s.Actions[k] = as
	case KindInstanceStart:
		s.Instances[r.Tag] = InstanceState{
			Kind:        r.WorkKind,
			Roles:       r.Roles,
			StartedWall: r.Wall,
		}
	case KindInstanceDone:
		is := s.Instances[r.Tag]
		is.Done = true
		s.Instances[r.Tag] = is
	}
}

// Replay folds a record sequence into a fresh state, resetting to any
// snapshot encountered.
func Replay(recs []Record) (State, error) {
	st := NewState()
	for _, r := range recs {
		if r.Kind == KindSnapshot {
			snap, err := DecodeState(r.Blob)
			if err != nil {
				return st, err
			}
			st = snap
			continue
		}
		st.Apply(r)
	}
	return st, nil
}

// dropConcluded deletes the concluded actions and done instances: the
// §3.4 boot decision reads only what is still open.
func (s State) dropConcluded() {
	maps.DeleteFunc(s.Actions, func(_ ActionKey, as ActionState) bool { return as.Outcome != "" })
	maps.DeleteFunc(s.Instances, func(_ string, is InstanceState) bool { return is.Done })
}

// InFlight returns the keys of actions that joined but never concluded,
// sorted for deterministic iteration.
func (s State) InFlight() []ActionKey {
	var out []ActionKey
	for k, as := range s.Actions {
		if as.Outcome == "" {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Thread != out[j].Thread {
			return out[i].Thread < out[j].Thread
		}
		return out[i].Action < out[j].Action
	})
	return out
}

// OpenInstances returns the tags of instances started but not done,
// sorted for deterministic iteration.
func (s State) OpenInstances() []string {
	var out []string
	for tag, is := range s.Instances {
		if !is.Done {
			out = append(out, tag)
		}
	}
	sort.Strings(out)
	return out
}

// Clone deep-copies the state.
func (s State) Clone() State {
	out := NewState()
	for k, v := range s.Actions {
		out.Actions[k] = v
	}
	for k, v := range s.Instances {
		out.Instances[k] = v
	}
	return out
}

// EncodeState renders the state as a snapshot blob: counted lists of
// action and instance entries in sorted key order, in the same binary
// style as the record codec.
func EncodeState(s State) []byte {
	keys := make([]ActionKey, 0, len(s.Actions))
	for k := range s.Actions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Thread != keys[j].Thread {
			return keys[i].Thread < keys[j].Thread
		}
		return keys[i].Action < keys[j].Action
	})
	tags := make([]string, 0, len(s.Instances))
	for t := range s.Instances {
		tags = append(tags, t)
	}
	sort.Strings(tags)

	var buf []byte
	buf = appendIntU(buf, len(keys))
	for _, k := range keys {
		as := s.Actions[k]
		buf = appendString(buf, k.Thread)
		buf = appendString(buf, k.Action)
		buf = appendString(buf, as.Role)
		buf = appendInt(buf, as.JoinedWall)
		buf = appendInt(buf, int64(as.Raises))
		buf = appendInt(buf, int64(as.Votes))
		buf = appendInt(buf, int64(as.LastRound))
		buf = appendString(buf, as.LastExc)
		buf = appendString(buf, as.Outcome)
		buf = appendInt(buf, as.OutcomeWall)
	}
	buf = appendIntU(buf, len(tags))
	for _, t := range tags {
		is := s.Instances[t]
		buf = appendString(buf, t)
		buf = appendString(buf, is.Kind)
		buf = appendInt(buf, int64(is.Roles))
		buf = appendInt(buf, is.StartedWall)
		if is.Done {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

func appendIntU(buf []byte, n int) []byte {
	return appendInt(buf, int64(n))
}

// DecodeState decodes a snapshot blob.
func DecodeState(blob []byte) (State, error) {
	st := NewState()
	d := &decoder{data: blob}
	nActions := int(d.int())
	if nActions < 0 || (d.err == nil && nActions > len(d.data)) {
		d.fail()
	}
	for i := 0; i < nActions && d.err == nil; i++ {
		k := ActionKey{Thread: d.string(), Action: d.string()}
		var as ActionState
		as.Role = d.string()
		as.JoinedWall = d.int()
		as.Raises = int(d.int())
		as.Votes = int(d.int())
		as.LastRound = int(d.int())
		as.LastExc = d.string()
		as.Outcome = d.string()
		as.OutcomeWall = d.int()
		if d.err == nil {
			st.Actions[k] = as
		}
	}
	nInst := int(d.int())
	if nInst < 0 || (d.err == nil && nInst > len(d.data)) {
		d.fail()
	}
	for i := 0; i < nInst && d.err == nil; i++ {
		t := d.string()
		var is InstanceState
		is.Kind = d.string()
		is.Roles = int(d.int())
		is.StartedWall = d.int()
		is.Done = d.byte() == 1
		if d.err == nil {
			st.Instances[t] = is
		}
	}
	if d.err != nil {
		return NewState(), d.err
	}
	return st, nil
}
