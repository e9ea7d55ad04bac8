package protocol

import (
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"caaction/internal/except"
)

// codecMessages exercises every message kind with populated, zero and
// awkward field values (reserved identifier characters, unicode, empty
// collections).
func codecMessages() []Message {
	raised := except.Raised{ID: "e1", Origin: "T1", Info: "disk on fire", At: 1500 * time.Millisecond}
	return []Message{
		Message{Kind: KindException, Action: "a7!outer#1/inner#2", From: "T1", Round: 3, Exc: raised},
		Message{Kind: KindException},
		Message{Kind: KindSuspended, Action: "outer#1", From: "T2", Round: 0},
		Message{Kind: KindCommit, Action: "outer#1", From: "T1", Round: 2, Resolved: "e1+e2",
			Raised: []except.Raised{raised, {ID: "e2", Origin: "T3"}}},
		Message{Kind: KindCommit, Action: "outer#1", From: "T1", Resolved: except.None},
		Message{Kind: KindRelay, Action: "outer#1", From: "T3", Round: 1, Exc: raised},
		Message{Kind: KindPropose, Action: "outer#1", From: "T2", Round: 4, Resolved: "µ"},
		Message{Kind: KindAck, Action: "outer#1", From: "T2", Round: 9},
		Message{Kind: KindToBeSignalled, Action: "tag!a#1", From: "T1", Exc: except.Raised{ID: "ƒ"}, Round: 7, Phase: 1},
		Message{Kind: KindToBeSignalled, Action: "a#1", From: "T1", Exc: except.Raised{ID: except.None}},
		Message{Kind: KindEnter, Action: "outer#1", From: "T4", Role: "producer"},
		Message{Kind: KindApp, Action: "outer#1", From: "T1", Role: "consumer", Payload: nil},
		Message{Kind: KindApp, Action: "outer#1", From: "T1", Role: "consumer", Payload: "plate"},
		Message{Kind: KindApp, Action: "outer#1", From: "T1", Role: "consumer", Payload: true},
		Message{Kind: KindApp, Action: "outer#1", From: "T1", Role: "consumer", Payload: false},
		Message{Kind: KindApp, Action: "outer#1", From: "T1", Role: "consumer", Payload: 42},
		Message{Kind: KindApp, Action: "outer#1", From: "T1", Role: "consumer", Payload: int64(-7)},
		Message{Kind: KindApp, Action: "outer#1", From: "T1", Role: "consumer", Payload: 2.5},
		Message{Kind: KindApp, Action: "outer#1", From: "T1", Role: "consumer", Payload: []byte{0, 1, 255}},
	}
}

func TestCodecRoundTripEveryKind(t *testing.T) {
	for _, msg := range codecMessages() {
		buf, err := AppendFrame(nil, "sender", msg)
		if err != nil {
			t.Fatalf("%v: encode: %v", msg.Kind, err)
		}
		from, got, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", msg.Kind, err)
		}
		if from != "sender" {
			t.Fatalf("%v: from = %q", msg.Kind, from)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, msg)
		}
	}
}

type codecPayload struct {
	Name  string
	Count int
}

func TestCodecGobPayloadFallback(t *testing.T) {
	gob.Register(codecPayload{})
	msg := Message{Kind: KindApp, Action: "a#1", From: "T1", Role: "r2",
		Payload: codecPayload{Name: "forged plate", Count: 3}}
	buf, err := AppendFrame(nil, "T1", msg)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("gob payload mismatch: %#v != %#v", got, msg)
	}
}

func TestCodecAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 512)
	for _, msg := range codecMessages() {
		out, err := AppendFrame(buf[:0], "s", msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) <= cap(buf) && &out[0] != &buf[:1][0] {
			t.Fatalf("%v: AppendFrame reallocated despite capacity", msg.Kind)
		}
	}
}

// TestCodecRejectsForeignMessage: a message of no known kind does not
// encode.
func TestCodecRejectsForeignMessage(t *testing.T) {
	if _, err := AppendFrame(nil, "s", foreignMsg); err == nil {
		t.Fatal("foreign message encoded without error")
	}
}

var foreignMsg = Message{Kind: Kind(NumKinds), Action: "a#1"}

func TestCodecRejectsMalformedFrames(t *testing.T) {
	good, err := AppendFrame(nil, "sender", Message{Kind: KindCommit, Action: "a#1", From: "T1", Round: 1,
		Resolved: "e1", Raised: []except.Raised{{ID: "e1", Origin: "T1"}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"zero tag":      {0},
		"unknown tag":   {200, 0},
		"truncated":     good[:len(good)-3],
		"trailing junk": append(append([]byte(nil), good...), 1, 2, 3),
		"huge count":    {byte(KindCommit + 1), 0, 0, 0, 0, 2, 'e', '1', 0xff, 0xff, 0xff},
	}
	for name, data := range cases {
		if _, _, err := DecodeFrame(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// batchEntry is one message of a test batch.
type batchEntry struct {
	To, From string
	Msg      Message
}

// appendBatch appends one complete batched node frame carrying every entry.
func appendBatch(buf []byte, entries []batchEntry) ([]byte, error) {
	buf = AppendNodeBatchHeader(buf)
	var err error
	for _, e := range entries {
		if buf, err = AppendNodeBatchEntry(buf, e.To, e.From, e.Msg); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// decodeBatch collects a batch's entries in wire order, interning names
// through names (nil: none).
func decodeBatch(data []byte, names *Names) ([]batchEntry, error) {
	var got []batchEntry
	err := DecodeNodeBatch(data, names, func(to []byte, from string, msg Message) error {
		got = append(got, batchEntry{To: string(to), From: from, Msg: msg})
		return nil
	})
	return got, err
}

func TestNodeBatchRoundTrip(t *testing.T) {
	var want []batchEntry
	for i, msg := range codecMessages() {
		want = append(want, batchEntry{To: "T" + string(rune('A'+i%4)), From: "sender", Msg: msg})
	}
	buf, err := appendBatch(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !IsNodeControl(buf) || !IsNodeBatch(buf) || IsNodeCredit(buf) {
		t.Fatalf("batch misclassified: control=%v batch=%v credit=%v",
			IsNodeControl(buf), IsNodeBatch(buf), IsNodeCredit(buf))
	}
	got, err := decodeBatch(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch round trip mismatch:\n got %#v\nwant %#v", got, want)
	}
	// Through one table, every decode equals the plain one: the first fills
	// the table, the later ones hit it.
	var names Names
	for i := 0; i < 3; i++ {
		got, err := decodeBatch(buf, &names)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interned decode %d mismatch:\n got %#v\nwant %#v", i, got, want)
		}
	}
}

// TestNamesBounded streams batches that carry more distinct names and
// action identifiers than the tables hold: neither table grows past its
// cap, and every decode still returns the strings that were sent.
func TestNamesBounded(t *testing.T) {
	var names Names
	for i := 0; i < 3*namesCap; i++ {
		want := batchEntry{To: "T1", From: fmt.Sprintf("node%d", i),
			Msg: Message{Kind: KindEnter, Action: fmt.Sprintf("a#%d", i), From: fmt.Sprintf("T%d", i), Role: fmt.Sprintf("r%d", i)}}
		buf, err := appendBatch(nil, []batchEntry{want})
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBatch(buf, &names)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Fatalf("entry %d: got %#v, want %#v", i, got, want)
		}
		if len(names.m) > namesCap || len(names.ids) > namesCap {
			t.Fatalf("after %d entries the tables hold %d names and %d ids, cap %d",
				i+1, len(names.m), len(names.ids), namesCap)
		}
	}
	long := string(make([]byte, namesMaxLen+1))
	if intern(&names.m, []byte(long), namesMaxLen); len(names.m) > namesCap || names.m[long] != "" {
		t.Fatalf("a %d-byte name entered the table", len(long))
	}
	long = string(make([]byte, idsMaxLen+1))
	if intern(&names.ids, []byte(long), idsMaxLen); names.ids[long] != "" {
		t.Fatalf("a %d-byte action identifier entered the table", len(long))
	}
}

// TestNamesSkipActionAndInfo pins what goes where: action identifiers are
// interned in their own table, not among the names; Raised.Info (free text)
// and payloads are decoded afresh; the name fields around them are interned.
func TestNamesSkipActionAndInfo(t *testing.T) {
	raised := except.Raised{ID: "e1", Origin: "T2", Info: "disk on fire", At: time.Second}
	buf, err := appendBatch(nil, []batchEntry{
		{To: "T1", From: "node2", Msg: Message{Kind: KindException, Action: "a7!outer#1", From: "T2", Round: 1, Exc: raised}},
		{To: "T1", From: "node2", Msg: Message{Kind: KindCommit, Action: "a7!outer#2", From: "T2", Resolved: "e1",
			Raised: []except.Raised{{ID: "e2", Origin: "T3", Info: "motor stalled"}}}},
		{To: "T1", From: "node2", Msg: Message{Kind: KindApp, Action: "a7!outer#3", From: "T2", Role: "arm", Payload: "payload text"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var names Names
	if _, err := decodeBatch(buf, &names); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"a7!outer#1", "a7!outer#2", "a7!outer#3", "disk on fire", "motor stalled", "payload text"} {
		if _, ok := names.m[s]; ok {
			t.Errorf("%q entered the name table", s)
		}
	}
	for _, s := range []string{"a7!outer#1", "a7!outer#2", "a7!outer#3"} {
		if _, ok := names.ids[s]; !ok {
			t.Errorf("action identifier %q was not interned", s)
		}
	}
	for _, s := range []string{"node2", "T2", "disk on fire", "motor stalled", "payload text"} {
		if _, ok := names.ids[s]; ok {
			t.Errorf("%q entered the action identifier table", s)
		}
	}
	for _, s := range []string{"node2", "T2", "T3", "e1", "e2", "arm"} {
		if _, ok := names.m[s]; !ok {
			t.Errorf("name %q was not interned", s)
		}
	}
}

// TestDecodeInternedAllocs pins the receive-side cost of a vote decoded
// through a warm table: nothing. The message is a value, and its action
// identifier and names repeat, so all come from the table.
func TestDecodeInternedAllocs(t *testing.T) {
	buf, err := appendBatch(nil, []batchEntry{
		{To: "T1", From: "node2", Msg: Message{Kind: KindToBeSignalled, Action: "a7!commit#1", From: "T2", Exc: except.Raised{ID: "e1"}, Round: 1, Phase: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var names Names
	var sink Message
	decode := func() {
		if err := DecodeNodeBatch(buf, &names, func(_ []byte, _ string, msg Message) error {
			sink = msg
			return nil
		}); err != nil {
			panic(err)
		}
	}
	decode()
	if n := testing.AllocsPerRun(100, decode); n > 0 {
		t.Fatalf("interned decode of one vote allocates %v, want 0", n)
	}
	_ = sink
}

// TestNodeBatchIncremental pins the entry layout the transport builds in
// place, entry by entry, inside its coalescing buffer: a 4-byte big-endian
// length slot, the destination as a length-prefixed string, then the plain
// frame.
func TestNodeBatchIncremental(t *testing.T) {
	entries := []batchEntry{
		{To: "T1", From: "s", Msg: Message{Kind: KindAck, Action: "a#1", From: "T2", Round: 1}},
		{To: "T2", From: "s", Msg: Message{Kind: KindEnter, Action: "a#1", From: "T1", Role: "r"}},
	}
	buf, err := appendBatch(nil, entries)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x00, 0x01}
	for _, e := range entries {
		frame, err := AppendFrame(appendString(nil, e.To), e.From, e.Msg)
		if err != nil {
			t.Fatal(err)
		}
		want = binary.BigEndian.AppendUint32(want, uint32(len(frame)))
		want = append(want, frame...)
	}
	if !reflect.DeepEqual(buf, want) {
		t.Fatalf("batch layout differs:\n got %x\nwant %x", buf, want)
	}
}

func TestNodeBatchEmpty(t *testing.T) {
	calls := 0
	if err := DecodeNodeBatch(AppendNodeBatchHeader(nil), nil, func([]byte, string, Message) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("empty batch invoked fn %d times", calls)
	}
}

func TestNodeBatchRejectsMalformed(t *testing.T) {
	good, err := appendBatch(nil, []batchEntry{
		{To: "T1", From: "s", Msg: Message{Kind: KindAck, Action: "a#1", From: "T2", Round: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"not a batch":      {7, 'x'},
		"credit as batch":  AppendNodeCredit(nil, 5),
		"torn entry":       good[:len(good)-2],
		"oversized length": {0x00, 0x01, 0xff, 0xff, 0xff, 0xff, 1, 2},
		"short header":     good[:NodeBatchHeaderLen+2],
		"garbage entry":    {0x00, 0x01, 0, 0, 0, 3, 1, 'T', 0},
	}
	for name, data := range cases {
		if err := DecodeNodeBatch(data, nil, func([]byte, string, Message) error { return nil }); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// An empty destination would collide with the control escape.
	if _, err := AppendNodeBatchEntry(AppendNodeBatchHeader(nil), "", "s", Message{Kind: KindAck}); err == nil {
		t.Error("empty destination encoded without error")
	}
}

// TestNodeBatchEntryErrorRestoresBuffer pins that a failed entry leaves the
// open batch exactly as it was, so the transport can keep flushing it.
func TestNodeBatchEntryErrorRestoresBuffer(t *testing.T) {
	buf := AppendNodeBatchHeader(nil)
	buf, err := AppendNodeBatchEntry(buf, "T1", "s", Message{Kind: KindAck, Action: "a#1"})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), buf...)
	if buf, err = AppendNodeBatchEntry(buf, "T2", "s", foreignMsg); err == nil {
		t.Fatal("foreign message encoded without error")
	}
	if !reflect.DeepEqual(buf, before) {
		t.Fatalf("failed entry corrupted the batch:\n got %x\nwant %x", buf, before)
	}
}

func TestNodeCreditRoundTrip(t *testing.T) {
	for _, grant := range []int{0, 1, 2048, 1 << 30} {
		buf := AppendNodeCredit(nil, grant)
		if !IsNodeControl(buf) || !IsNodeCredit(buf) || IsNodeBatch(buf) {
			t.Fatalf("grant %d misclassified", grant)
		}
		got, err := DecodeNodeCredit(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != grant {
			t.Fatalf("grant round trip: got %d, want %d", got, grant)
		}
	}
	for name, data := range map[string][]byte{
		"empty":      {},
		"batch":      {0x00, 0x01},
		"truncated":  {0x00, 0x02},
		"trailing":   append(AppendNodeCredit(nil, 3), 9),
		"overflowed": {0x00, 0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		if _, err := DecodeNodeCredit(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestNodeFrameRejectsEmptyDestination pins that every batch entry names
// its destination: the encoder refuses an empty one, and the decoder
// rejects a hand-built entry that carries one.
func TestNodeFrameRejectsEmptyDestination(t *testing.T) {
	if _, err := AppendNodeBatchEntry(AppendNodeBatchHeader(nil), "", "s", Message{Kind: KindAck, Action: "a#1"}); err == nil {
		t.Fatal("empty destination encoded without error")
	}
	frame, err := AppendFrame(appendString(nil, ""), "s", Message{Kind: KindAck, Action: "a#1"})
	if err != nil {
		t.Fatal(err)
	}
	buf := binary.BigEndian.AppendUint32(AppendNodeBatchHeader(nil), uint32(len(frame)))
	if err := DecodeNodeBatch(append(buf, frame...), nil, func([]byte, string, Message) error { return nil }); err == nil {
		t.Fatal("empty-destination entry decoded without error")
	}
}

// TestCodecMatchesGobSemantics pins that the binary codec and the gob wire
// agree on what a message means: everything gob round-trips, the codec
// round-trips to the same value.
func TestCodecMatchesGobSemantics(t *testing.T) {
	RegisterGob()
	for _, msg := range codecMessages() {
		buf, err := AppendFrame(nil, "s", msg)
		if err != nil {
			t.Fatal(err)
		}
		_, viaCodec, err := DecodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaCodec, msg) {
			t.Fatalf("%v: codec disagrees with original", msg.Kind)
		}
	}
}

func TestKindNamesCoverEveryKind(t *testing.T) {
	seen := map[string]bool{}
	for k := KindException; k.Valid(); k++ {
		if KindNames[k] == "" || seen[KindNames[k]] || k.String() != KindNames[k] {
			t.Fatalf("kind %d: name %q, String %q", k, KindNames[k], k.String())
		}
		if MetricNames[k] != "msg."+KindNames[k] {
			t.Fatalf("kind %d: MetricNames = %q", k, MetricNames[k])
		}
		seen[KindNames[k]] = true
	}
	if len(seen) != NumKinds {
		t.Fatalf("kinds not dense: %v", seen)
	}
	if k := Kind(NumKinds); k.Valid() || k.String() != "Kind(9)" {
		t.Fatalf("Kind(%d): valid %v, String %q", k, k.Valid(), k.String())
	}
}

func TestKindLabels(t *testing.T) {
	labels := KindLabels("send.")
	if labels[KindEnter] != "send.Enter" || labels[KindApp] != "send.App" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestParseID(t *testing.T) {
	cases := []struct {
		raw  string
		want ParsedID
	}{
		{"", ParsedID{}},
		{"outer#1", ParsedID{Raw: "outer#1", Base: "outer#1"}},
		{"a7!outer#1", ParsedID{Raw: "a7!outer#1", Tag: "a7", Base: "outer#1"}},
		{"outer#1/inner#2", ParsedID{Raw: "outer#1/inner#2", Parent: "outer#1",
			Base: "inner#2", Depth: 1}},
		{"a7!outer#1/mid#1/leaf#3", ParsedID{Raw: "a7!outer#1/mid#1/leaf#3", Tag: "a7",
			Parent: "a7!outer#1/mid#1", Base: "leaf#3", Depth: 2}},
	}
	for _, c := range cases {
		if got := ParseID(c.raw); got != c.want {
			t.Errorf("ParseID(%q) = %+v, want %+v", c.raw, got, c.want)
		}
	}
}

func TestParsedIDChild(t *testing.T) {
	p := ParseID("a7!outer#1")
	child := p.Child("a7!outer#1/inner#2")
	if want := ParseID("a7!outer#1/inner#2"); child != want {
		t.Fatalf("Child = %+v, want %+v", child, want)
	}
	grand := child.Child("a7!outer#1/inner#2/leaf#1")
	if want := ParseID("a7!outer#1/inner#2/leaf#1"); grand != want {
		t.Fatalf("grandchild = %+v, want %+v", grand, want)
	}
	for _, raw := range []string{"a7!outer#1", "a7!outer#1/", "a7!other#1/inner#2", "a7!outer#1/inner#2/leaf#1"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Child(%q) of a7!outer#1 did not panic", raw)
				}
			}()
			p.Child(raw)
		}()
	}
}

func BenchmarkCodecEncodeException(b *testing.B) {
	msg := Message{Kind: KindException, Action: "a7!outer#1/inner#2", From: "T1", Round: 3,
		Exc: except.Raised{ID: "e1", Origin: "T1", Info: "x", At: time.Second}}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], "T1", msg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecRoundTripException(b *testing.B) {
	msg := Message{Kind: KindException, Action: "a7!outer#1/inner#2", From: "T1", Round: 3,
		Exc: except.Raised{ID: "e1", Origin: "T1", Info: "x", At: time.Second}}
	buf, err := AppendFrame(nil, "T1", msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// wireKinds is one message of each of the nine kinds, with a raised list on
// Commit and a payload on App: the messages whose encoding
// TestWireBytesPinned fixes.
func wireKinds() []Message {
	raised := except.Raised{ID: "e1", Origin: "T1", Info: "disk on fire", At: 1500 * time.Millisecond}
	return []Message{
		Message{Kind: KindException, Action: "a7!outer#1/inner#2", From: "T1", Round: 3, Exc: raised},
		Message{Kind: KindSuspended, Action: "a7!outer#1", From: "T2", Round: 1},
		Message{Kind: KindCommit, Action: "a7!outer#1", From: "T3", Round: 2, Resolved: "e1+e2",
			Raised: []except.Raised{raised, {ID: "e2", Origin: "T3", At: -2}}},
		Message{Kind: KindRelay, Action: "outer#1", From: "T3", Round: 1, Exc: raised},
		Message{Kind: KindPropose, Action: "outer#1", From: "T2", Round: 4, Resolved: "µ"},
		Message{Kind: KindAck, Action: "outer#1", From: "T2", Round: 9},
		Message{Kind: KindToBeSignalled, Action: "a7!outer#1", From: "T1", Exc: except.Raised{ID: "ƒ"}, Round: 7, Phase: 2},
		Message{Kind: KindEnter, Action: "a7!outer#1", From: "T4", Role: "producer"},
		Message{Kind: KindApp, Action: "a7!outer#1", From: "T1", Role: "consumer", Payload: "plate"},
	}
}

// TestWireBytesPinned fixes the node wire byte for byte: one batch carrying
// an entry of each kind must encode to exactly these bytes, and decode back
// to the same messages. Any change to a kind's field order, tag or
// encoding fails here.
func TestWireBytesPinned(t *testing.T) {
	const want = "00010000003902543101056e6f646532126137216f7574657223312f696e6e65" +
		"722332025431060265310254310c6469736b206f6e206669726580bcc1960b00" +
		"00001902543202056e6f6465320a6137216f7574657223310254320200000040" +
		"02543303056e6f6465320a6137216f757465722331025433040565312b653202" +
		"0265310254310c6469736b206f6e206669726580bcc1960b0265320254330003" +
		"0000002e02543104056e6f646532076f75746572233102543302026531025431" +
		"0c6469736b206f6e206669726580bcc1960b0000001902543205056e6f646532" +
		"076f7574657223310254320802c2b50000001602543306056e6f646532076f75" +
		"7465722331025432120000001d02543107056e6f6465320a6137216f75746572" +
		"233102543102c6920e040000002102543208056e6f6465320a6137216f757465" +
		"7223310254340870726f64756365720000002802543309056e6f6465320a6137" +
		"216f75746572233102543108636f6e73756d65720105706c617465"
	var entries []batchEntry
	for i, msg := range wireKinds() {
		entries = append(entries, batchEntry{To: fmt.Sprintf("T%d", i%3+1), From: "node2", Msg: msg})
	}
	buf, err := appendBatch(nil, entries)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf); got != want {
		t.Fatalf("wire bytes moved:\n got %s\nwant %s", got, want)
	}
	raw, err := hex.DecodeString(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBatch(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("pinned bytes decode to\n %#v\nwant\n %#v", got, entries)
	}
}

// TestMessageRenderingsPinned fixes how messages print: sim logs and
// diagnostics format them with %v, so these renderings are output.
func TestMessageRenderingsPinned(t *testing.T) {
	want := []string{
		"Exception(a7!outer#1/inner#2, T1, e1)",
		"Suspended(a7!outer#1, T2)",
		"Commit(a7!outer#1, e1+e2)",
		"{outer#1 T3 1 {e1 T1 disk on fire 1.5s}}",
		"{outer#1 T2 4 µ}",
		"{outer#1 T2 9}",
		"toBeSignalled(a7!outer#1, T1, ƒ, r7)",
		"{a7!outer#1 T4 producer}",
		"{a7!outer#1 T1 consumer plate}",
	}
	for i, msg := range wireKinds() {
		if got := fmt.Sprint(msg); got != want[i] {
			t.Errorf("kind %d renders %q, want %q", i, got, want[i])
		}
	}
	for _, c := range []struct {
		msg  Message
		want string
	}{
		{Message{Kind: KindToBeSignalled, Action: "a#1", From: "T2", Exc: except.Raised{ID: except.None}, Phase: 1}, "toBeSignalled(a#1, T2, φ, r0)"},
		{Message{Kind: KindApp, Action: "a#1", From: "T2", Role: "r"}, "{a#1 T2 r <nil>}"},
		{Message{Kind: KindApp, Action: "a#1", From: "T2", Role: "r", Payload: 42}, "{a#1 T2 r 42}"},
		{Message{Kind: KindCommit, Action: "a#1", From: "T2", Resolved: except.None}, "Commit(a#1, )"},
	} {
		if got := fmt.Sprint(c.msg); got != c.want {
			t.Errorf("%v renders %q, want %q", c.msg, got, c.want)
		}
	}
}
