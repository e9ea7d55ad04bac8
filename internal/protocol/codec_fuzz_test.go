package protocol

import (
	"reflect"
	"testing"
)

// FuzzCodecRoundTrip feeds arbitrary bytes to the binary decoder: it must
// never panic, and any frame it accepts must re-encode and re-decode to the
// same message (value round-trip; byte equality is not required because
// varints admit non-minimal encodings).
func FuzzCodecRoundTrip(f *testing.F) {
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
func FuzzNodeBatchRoundTrip(f *testing.F) {
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
		got, err := decodeBatch(data)
		if err != nil {
			return // malformed input rejected: fine
		}
		buf, err := appendBatch(nil, got)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		got2, err := decodeBatch(buf)
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
