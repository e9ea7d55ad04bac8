package protocol

import (
	"encoding/binary"
	"encoding/gob"
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
		Exception{Action: "a7!outer#1/inner#2", From: "T1", Round: 3, Exc: raised},
		Exception{},
		Suspended{Action: "outer#1", From: "T2", Round: 0},
		Commit{Action: "outer#1", From: "T1", Round: 2, Resolved: "e1+e2",
			Raised: []except.Raised{raised, {ID: "e2", Origin: "T3"}}},
		Commit{Action: "outer#1", From: "T1", Resolved: except.None},
		Relay{Action: "outer#1", From: "T3", Round: 1, Exc: raised},
		Propose{Action: "outer#1", From: "T2", Round: 4, Resolved: "µ"},
		Ack{Action: "outer#1", From: "T2", Round: 9},
		ToBeSignalled{Action: "tag!a#1", From: "T1", Exc: "ƒ", Round: 7, Phase: 1},
		ToBeSignalled{Action: "a#1", From: "T1", Exc: except.None},
		Enter{Action: "outer#1", From: "T4", Role: "producer"},
		App{Action: "outer#1", From: "T1", ToRole: "consumer", Payload: nil},
		App{Action: "outer#1", From: "T1", ToRole: "consumer", Payload: "plate"},
		App{Action: "outer#1", From: "T1", ToRole: "consumer", Payload: true},
		App{Action: "outer#1", From: "T1", ToRole: "consumer", Payload: false},
		App{Action: "outer#1", From: "T1", ToRole: "consumer", Payload: 42},
		App{Action: "outer#1", From: "T1", ToRole: "consumer", Payload: int64(-7)},
		App{Action: "outer#1", From: "T1", ToRole: "consumer", Payload: 2.5},
		App{Action: "outer#1", From: "T1", ToRole: "consumer", Payload: []byte{0, 1, 255}},
	}
}

func TestCodecRoundTripEveryKind(t *testing.T) {
	for _, msg := range codecMessages() {
		buf, err := AppendFrame(nil, "sender", msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		from, got, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if from != "sender" {
			t.Fatalf("%T: from = %q", msg, from)
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
	msg := App{Action: "a#1", From: "T1", ToRole: "r2",
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
			t.Fatalf("%T: AppendFrame reallocated despite capacity", msg)
		}
	}
}

func TestCodecRejectsForeignMessage(t *testing.T) {
	if _, err := AppendFrame(nil, "s", foreignMsg{}); err == nil {
		t.Fatal("foreign message encoded without error")
	}
}

type foreignMsg struct{}

func (foreignMsg) Kind() string { return "Foreign" }

func TestCodecRejectsMalformedFrames(t *testing.T) {
	good, err := AppendFrame(nil, "sender", Commit{Action: "a#1", From: "T1", Round: 1,
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

// TestNamesBounded streams batches that carry more distinct names than the
// table holds: the table never grows past its cap, and every decode still
// returns the names that were sent.
func TestNamesBounded(t *testing.T) {
	var names Names
	for i := 0; i < 3*namesCap; i++ {
		want := batchEntry{To: "T1", From: fmt.Sprintf("node%d", i),
			Msg: Enter{Action: "a#1", From: fmt.Sprintf("T%d", i), Role: fmt.Sprintf("r%d", i)}}
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
		if len(names.m) > namesCap {
			t.Fatalf("after %d entries the table holds %d names, cap %d", i+1, len(names.m), namesCap)
		}
	}
	long := string(make([]byte, namesMaxLen+1))
	if names.intern([]byte(long)); len(names.m) > namesCap || names.m[long] != "" {
		t.Fatalf("a %d-byte name entered the table", len(long))
	}
}

// TestNamesSkipActionAndInfo pins what stays out of the table: action
// identifiers (unique per instance) and Raised.Info (free text) are decoded
// afresh, while the name fields around them are interned.
func TestNamesSkipActionAndInfo(t *testing.T) {
	raised := except.Raised{ID: "e1", Origin: "T2", Info: "disk on fire", At: time.Second}
	buf, err := appendBatch(nil, []batchEntry{
		{To: "T1", From: "node2", Msg: Exception{Action: "a7!outer#1", From: "T2", Round: 1, Exc: raised}},
		{To: "T1", From: "node2", Msg: Commit{Action: "a7!outer#2", From: "T2", Resolved: "e1",
			Raised: []except.Raised{{ID: "e2", Origin: "T3", Info: "motor stalled"}}}},
		{To: "T1", From: "node2", Msg: App{Action: "a7!outer#3", From: "T2", ToRole: "arm", Payload: "payload text"}},
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
	for _, s := range []string{"node2", "T2", "T3", "e1", "e2", "arm"} {
		if _, ok := names.m[s]; !ok {
			t.Errorf("name %q was not interned", s)
		}
	}
}

// TestDecodeInternedAllocs pins the receive-side cost of a vote decoded
// through a warm table: the message box and the action identifier.
func TestDecodeInternedAllocs(t *testing.T) {
	buf, err := appendBatch(nil, []batchEntry{
		{To: "T1", From: "node2", Msg: ToBeSignalled{Action: "a7!commit#1", From: "T2", Exc: "e1", Round: 1, Phase: 1}},
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
	if n := testing.AllocsPerRun(100, decode); n > 2 {
		t.Fatalf("interned decode of one vote allocates %v, want ≤ 2 (box and action id)", n)
	}
	_ = sink
}

// TestNodeBatchIncremental pins the entry layout the transport builds in
// place, entry by entry, inside its coalescing buffer: a 4-byte big-endian
// length slot, the destination as a length-prefixed string, then the plain
// frame.
func TestNodeBatchIncremental(t *testing.T) {
	entries := []batchEntry{
		{To: "T1", From: "s", Msg: Ack{Action: "a#1", From: "T2", Round: 1}},
		{To: "T2", From: "s", Msg: Enter{Action: "a#1", From: "T1", Role: "r"}},
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
		{To: "T1", From: "s", Msg: Ack{Action: "a#1", From: "T2", Round: 1}},
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
	if _, err := AppendNodeBatchEntry(AppendNodeBatchHeader(nil), "", "s", Ack{}); err == nil {
		t.Error("empty destination encoded without error")
	}
}

// TestNodeBatchEntryErrorRestoresBuffer pins that a failed entry leaves the
// open batch exactly as it was, so the transport can keep flushing it.
func TestNodeBatchEntryErrorRestoresBuffer(t *testing.T) {
	buf := AppendNodeBatchHeader(nil)
	buf, err := AppendNodeBatchEntry(buf, "T1", "s", Ack{Action: "a#1"})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), buf...)
	if buf, err = AppendNodeBatchEntry(buf, "T2", "s", foreignMsg{}); err == nil {
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
	if _, err := AppendNodeBatchEntry(AppendNodeBatchHeader(nil), "", "s", Ack{Action: "a#1"}); err == nil {
		t.Fatal("empty destination encoded without error")
	}
	frame, err := AppendFrame(appendString(nil, ""), "s", Ack{Action: "a#1"})
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
			t.Fatalf("%T: codec disagrees with original", msg)
		}
	}
}

func TestKindIndexOfCoversEveryMessage(t *testing.T) {
	seen := map[int]bool{}
	for _, msg := range []Message{Exception{}, Suspended{}, Commit{}, Relay{},
		Propose{}, Ack{}, ToBeSignalled{}, Enter{}, App{}} {
		idx := KindIndexOf(msg)
		if idx < 0 || idx >= NumKinds {
			t.Fatalf("%T: index %d out of range", msg, idx)
		}
		if KindNames[idx] != msg.Kind() {
			t.Fatalf("%T: KindNames[%d] = %q, Kind() = %q", msg, idx, KindNames[idx], msg.Kind())
		}
		if MetricNames[idx] != "msg."+msg.Kind() {
			t.Fatalf("%T: MetricNames[%d] = %q", msg, idx, MetricNames[idx])
		}
		seen[idx] = true
	}
	if len(seen) != NumKinds {
		t.Fatalf("indices not dense: %v", seen)
	}
	if KindIndexOf(foreignMsg{}) != -1 {
		t.Fatal("foreign message got a kind index")
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
	child := p.Child("inner#2")
	if want := ParseID("a7!outer#1/inner#2"); child != want {
		t.Fatalf("Child = %+v, want %+v", child, want)
	}
	grand := child.Child("leaf#1")
	if want := ParseID("a7!outer#1/inner#2/leaf#1"); grand != want {
		t.Fatalf("grandchild = %+v, want %+v", grand, want)
	}
}

func BenchmarkCodecEncodeException(b *testing.B) {
	msg := Exception{Action: "a7!outer#1/inner#2", From: "T1", Round: 3,
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
	msg := Exception{Action: "a7!outer#1/inner#2", From: "T1", Round: 3,
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
