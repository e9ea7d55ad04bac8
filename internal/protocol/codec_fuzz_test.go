package protocol

import (
	"reflect"
	"testing"
)

// FuzzCodecRoundTrip feeds arbitrary bytes to the binary decoder: it must
// never panic, and any frame it accepts must re-encode and re-decode to the
// same message (value round-trip; byte equality is not required because
// varints admit non-minimal encodings). Decoding through a name table
// shared by every input, twice, must give the plain decode's message.
func FuzzCodecRoundTrip(f *testing.F) {
	var names Names
	for _, msg := range codecMessages() {
		buf, err := AppendFrame(nil, "seed-sender", msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{byte(KindCommit + 1), 1, 'x', 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		from, msg, err := DecodeFrame(data)
		for i := 0; i < 2; i++ {
			d := decoder{data: data, names: &names}
			from2, msg2, err2 := d.frame()
			if (err == nil) != (err2 == nil) {
				t.Fatalf("interned decode %d disagrees on validity: %v vs %v", i, err, err2)
			}
			if err == nil && !sameFrame(from, msg, from2, msg2) {
				t.Fatalf("interned decode %d drift:\n plain (%q, %#v)\ninterned (%q, %#v)",
					i, from, msg, from2, msg2)
			}
		}
		if len(names.m) > namesCap {
			t.Fatalf("name table holds %d names, cap %d", len(names.m), namesCap)
		}
		if err != nil {
			return // malformed input rejected: fine
		}
		buf, err := AppendFrame(nil, from, msg)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		from2, msg2, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		// Compare via canonical re-encodings: DeepEqual would reject NaN
		// payloads that round-trip bit-exactly.
		buf2, err := AppendFrame(nil, from2, msg2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if from2 != from || !reflect.DeepEqual(buf2, buf) {
			t.Fatalf("round trip drift:\n first (%q, %#v)\nsecond (%q, %#v)",
				from, msg, from2, msg2)
		}
	})
}

// FuzzNodeBatchRoundTrip feeds arbitrary bytes to the batch decoder: it must
// never panic, reject torn and oversized entry lengths, and any batch it
// accepts must re-encode entry-for-entry and decode to the same sequence.
// Decoding through a name table shared by every input, twice, must give
// the plain decode's entries.
func FuzzNodeBatchRoundTrip(f *testing.F) {
	var names Names
	var seed []batchEntry
	for _, msg := range codecMessages() {
		seed = append(seed, batchEntry{To: "T1", From: "seed-sender", Msg: msg})
	}
	full, err := appendBatch(nil, seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(AppendNodeBatchHeader(nil))                    // empty batch
	f.Add(full[:len(full)-3])                            // torn tail
	f.Add([]byte{0x00, 0x01, 0xff, 0xff, 0xff, 0xff, 1}) // oversized entry length
	f.Add([]byte{0x00, 0x02, 0x80})                      // truncated credit, wrong kind
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeBatch(data, nil)
		for i := 0; i < 2; i++ {
			interned, err2 := decodeBatch(data, &names)
			if (err == nil) != (err2 == nil) {
				t.Fatalf("interned decode %d disagrees on validity: %v vs %v", i, err, err2)
			}
			if err == nil && !sameBatch(got, interned) {
				t.Fatalf("interned decode %d drift:\n plain %#v\ninterned %#v", i, got, interned)
			}
		}
		if len(names.m) > namesCap {
			t.Fatalf("name table holds %d names, cap %d", len(names.m), namesCap)
		}
		if err != nil {
			return // malformed input rejected: fine
		}
		buf, err := appendBatch(nil, got)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		got2, err := decodeBatch(buf, nil)
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
		if len(got) != len(got2) {
			t.Fatalf("entry count drift: %d != %d", len(got), len(got2))
		}
		// Compare via canonical re-encodings (NaN payloads).
		buf2, err := appendBatch(nil, got2)
		if err != nil || !reflect.DeepEqual(buf, buf2) {
			t.Fatalf("batch drift (%v):\n first %#v\nsecond %#v", err, got, got2)
		}
	})
}

// sameFrame compares two decoded frames field for field, through their
// canonical re-encodings: DeepEqual would reject NaN payloads that decode
// bit-exactly.
func sameFrame(from1 string, msg1 Message, from2 string, msg2 Message) bool {
	b1, err1 := AppendFrame(nil, from1, msg1)
	b2, err2 := AppendFrame(nil, from2, msg2)
	return from1 == from2 && err1 == nil && err2 == nil && reflect.DeepEqual(b1, b2)
}

// sameBatch compares two decoded batches entry by entry, as sameFrame does.
func sameBatch(a, b []batchEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].To != b[i].To || !sameFrame(a[i].From, a[i].Msg, b[i].From, b[i].Msg) {
			return false
		}
	}
	return true
}
