package protocol

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"caaction/internal/except"
)

func allMessages() []Message {
	return []Message{
		Message{Kind: KindException, Action: "a#1", From: "T1", Round: 2,
			Exc: except.Raised{ID: "e1", Origin: "T1", Info: "x"}},
		Message{Kind: KindSuspended, Action: "a#1", From: "T2", Round: 2},
		Message{Kind: KindCommit, Action: "a#1", From: "T3", Round: 2, Resolved: "e1+e2",
			Raised: []except.Raised{{ID: "e1"}, {ID: "e2"}}},
		Message{Kind: KindRelay, Action: "a#1", From: "T2", Round: 2, Exc: except.Raised{ID: "e1", Origin: "T1"}},
		Message{Kind: KindPropose, Action: "a#1", From: "T1", Round: 2, Resolved: "e1"},
		Message{Kind: KindAck, Action: "a#1", From: "T1", Round: 2},
		Message{Kind: KindToBeSignalled, Action: "a#1", From: "T1", Exc: except.Raised{ID: except.Undo}, Round: 2, Phase: 2},
		Message{Kind: KindEnter, Action: "a#1", From: "T1", Role: "producer"},
		Message{Kind: KindApp, Action: "a#1", From: "T1", Role: "consumer", Payload: "data"},
	}
}

func TestKindsAreDistinct(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range allMessages() {
		if !m.Kind.Valid() {
			t.Fatalf("%v has an invalid kind", m)
		}
		if seen[m.Kind] {
			t.Fatalf("duplicate kind %v", m.Kind)
		}
		seen[m.Kind] = true
	}
}

func TestGobRoundTrip(t *testing.T) {
	RegisterGob()
	for _, m := range allMessages() {
		var buf bytes.Buffer
		wrapped := struct{ M Message }{m}
		if err := gob.NewEncoder(&buf).Encode(&wrapped); err != nil {
			t.Fatalf("encode %v: %v", m.Kind, err)
		}
		var out struct{ M Message }
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
			t.Fatalf("decode %v: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(out.M, m) {
			t.Fatalf("round trip changed the message: %#v -> %#v", m, out.M)
		}
	}
	// Registration must be idempotent.
	RegisterGob()
}

func TestInstanceTags(t *testing.T) {
	cases := []struct {
		action, instance string
	}{
		{"transfer#1", ""},                   // no tag
		{"outer#1/inner#2", ""},              // nesting without a tag
		{"a7!transfer#1", "a7"},              // tagged top-level
		{"a7!transfer#1/leg#1", "a7"},        // tag inherited by nesting
		{TagInstance("p3", "chaos#1"), "p3"}, // round trip
		{"", ""},
	}
	for _, tc := range cases {
		if got := InstanceOf(tc.action); got != tc.instance {
			t.Errorf("InstanceOf(%q) = %q, want %q", tc.action, got, tc.instance)
		}
	}
}

func TestTagInstanceRejectsReservedCharacters(t *testing.T) {
	for _, tag := range []string{"a!b", "a/b", "!", "/"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TagInstance(%q, _) did not panic", tag)
				}
			}()
			TagInstance(tag, "x#1")
		}()
	}
}

func TestStringForms(t *testing.T) {
	cases := []struct {
		msg  interface{ String() string }
		want string
	}{
		{Message{Kind: KindException, Action: "a", From: "T1", Exc: except.Raised{ID: "e1"}}, "Exception(a, T1, e1)"},
		{Message{Kind: KindSuspended, Action: "a", From: "T2"}, "Suspended(a, T2)"},
		{Message{Kind: KindCommit, Action: "a", Resolved: "e"}, "Commit(a, e)"},
		{Message{Kind: KindToBeSignalled, Action: "a", From: "T1", Exc: except.Raised{ID: except.None}, Round: 1, Phase: 1},
			"toBeSignalled(a, T1, φ, r1)"},
	}
	for _, tc := range cases {
		if got := tc.msg.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
