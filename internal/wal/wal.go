// Package wal is the durable write-ahead log of protocol state that makes
// crash-recovery possible: entry-barrier joins and resolution-round raises
// are appended — and made durable — before the corresponding protocol
// message leaves the node, and final outcomes when the action concludes,
// so a restarted node can replay the log, rebuild its in-flight action
// state, and decide per §3.4 which actions to re-join and which to abort
// deterministically. Exit votes (KindVote) are no longer written by the
// runtime, but a log that holds them still decodes and replays.
//
// Two implementations share one record format: File is the fsync-batched
// on-disk log cluster nodes open on boot, and Memory is the virtual-clock
// variant the chaos engine installs so kill-and-restart scenarios stay
// byte-deterministic.
//
// The on-disk format reuses the internal/protocol codec style: each record
// is a uvarint length prefix followed by a binary body —
//
//	record  := kind(u8) wall(int) thread(string) action(string) role(string)
//	           round(int) exc(string) outcome(string) tag(string)
//	           workKind(string) roles(int) blob(bytes)
//	string  := uvarint byte-length, then that many bytes
//	int     := zigzag varint (encoding/binary's varint)
//	bytes   := uvarint byte-length, then that many bytes
//
// Every record carries the full field set (unused fields encode as a
// one-byte zero), which keeps the codec a single straight-line pair of
// functions. A KindSnapshot record's blob is a complete State encoding;
// replay resets to it and applies the records that follow, so periodic
// snapshot compaction bounds both replay length and file size.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrCodec reports a malformed or truncated WAL record. A truncated *tail*
// (a crash mid-append) is not an error: replay stops at the last complete
// record.
var ErrCodec = errors.New("wal: malformed record")

// Kind discriminates WAL records.
type Kind uint8

const (
	// KindJoin records a thread passing an action's entry barrier.
	KindJoin Kind = iota + 1
	// KindRaise records an exception raised into a resolution round.
	KindRaise
	// KindVote records a thread's exit vote (the exception it proposes to
	// signal, "" for a clean commit).
	KindVote
	// KindOutcome records an action's final local outcome for a thread:
	// "ok", "undone", "failed", "signalled:<exc>", "aborted", "deadline"
	// or "error".
	KindOutcome
	// KindInstanceStart records a cluster node starting its local roles of
	// a tagged workload instance.
	KindInstanceStart
	// KindInstanceDone records that instance finishing locally.
	KindInstanceDone
	// KindSnapshot carries a complete State in Blob; records before it are
	// superseded.
	KindSnapshot
)

func (k Kind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindRaise:
		return "raise"
	case KindVote:
		return "vote"
	case KindOutcome:
		return "outcome"
	case KindInstanceStart:
		return "instance-start"
	case KindInstanceDone:
		return "instance-done"
	case KindSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("wal.Kind(%d)", uint8(k))
	}
}

// Record is one WAL entry. Which fields are meaningful depends on Kind;
// the codec always carries all of them.
type Record struct {
	Kind Kind
	// Wall is the record's timestamp in nanoseconds: wall-clock unix nanos
	// for File, virtual-clock nanos for Memory. Replay decision rules
	// compare ages against it.
	Wall int64
	// Thread and Action identify the participant and action instance for
	// protocol records (KindJoin..KindOutcome).
	Thread string
	Action string
	// Role is the thread's role in the action (KindJoin).
	Role string
	// Round is the resolution round (KindRaise, KindVote).
	Round int
	// Exc is the raised exception (KindRaise) or exit vote (KindVote; ""
	// votes a clean commit).
	Exc string
	// Outcome is the final classification (KindOutcome).
	Outcome string
	// Tag, WorkKind and Roles describe a tagged cluster instance
	// (KindInstanceStart, KindInstanceDone).
	Tag      string
	WorkKind string
	Roles    int
	// Blob is a nested State encoding (KindSnapshot only).
	Blob []byte
}

// appendRecord appends r's body (without the length prefix) to buf.
func appendRecord(buf []byte, r Record) []byte {
	buf = append(buf, byte(r.Kind))
	buf = appendInt(buf, r.Wall)
	buf = appendString(buf, r.Thread)
	buf = appendString(buf, r.Action)
	buf = appendString(buf, r.Role)
	buf = appendInt(buf, int64(r.Round))
	buf = appendString(buf, r.Exc)
	buf = appendString(buf, r.Outcome)
	buf = appendString(buf, r.Tag)
	buf = appendString(buf, r.WorkKind)
	buf = appendInt(buf, int64(r.Roles))
	buf = appendBytes(buf, r.Blob)
	return buf
}

// AppendFrame appends r's length-prefixed encoding to buf and returns the
// extended buffer — the append side of the on-disk format. The body's
// length is computed up front, so the frame is encoded in place and
// allocates only when buf must grow.
func AppendFrame(buf []byte, r Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(recordLen(r)))
	return appendRecord(buf, r)
}

// recordLen is the length of appendRecord's encoding of r.
func recordLen(r Record) int {
	return 1 + intLen(r.Wall) + stringLen(r.Thread) + stringLen(r.Action) +
		stringLen(r.Role) + intLen(int64(r.Round)) + stringLen(r.Exc) +
		stringLen(r.Outcome) + stringLen(r.Tag) + stringLen(r.WorkKind) +
		intLen(int64(r.Roles)) + uvarintLen(uint64(len(r.Blob))) + len(r.Blob)
}

// decodeRecord decodes one record body.
func decodeRecord(data []byte) (Record, error) {
	d := &decoder{data: data}
	var r Record
	r.Kind = Kind(d.byte())
	r.Wall = d.int()
	r.Thread = d.string()
	r.Action = d.string()
	r.Role = d.string()
	r.Round = int(d.int())
	r.Exc = d.string()
	r.Outcome = d.string()
	r.Tag = d.string()
	r.WorkKind = d.string()
	r.Roles = int(d.int())
	r.Blob = d.bytes()
	if d.err != nil {
		return Record{}, d.err
	}
	if r.Kind < KindJoin || r.Kind > KindSnapshot {
		return Record{}, fmt.Errorf("%w: unknown kind %d", ErrCodec, r.Kind)
	}
	return r, nil
}

// DecodeAll decodes every complete length-prefixed record in data and
// reports how many bytes they span, tolerating a truncated tail: a crash
// mid-append leaves a partial final record, which replay ignores. A
// malformed record *body* is still an error — that is corruption, not
// truncation.
func DecodeAll(data []byte) ([]Record, int, error) {
	var out []Record
	used := 0
	for used < len(data) {
		rest := data[used:]
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n > uint64(len(rest)-sz) {
			break // truncated tail: keep what we have
		}
		rec, err := decodeRecord(rest[sz : sz+int(n)])
		if err != nil {
			return out, used, err
		}
		out = append(out, rec)
		used += sz + int(n)
	}
	return out, used, nil
}

// Codec helpers, mirroring internal/protocol's binary style: uvarint
// length-prefixed strings and bytes, zigzag-varint ints, and a decode
// cursor that latches its first error.

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendInt(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// intLen is the length of appendInt's zigzag varint encoding of v.
func intLen(v int64) int { return uvarintLen(uint64(v)<<1 ^ uint64(v>>63)) }

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

type decoder struct {
	data []byte
	err  error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrCodec
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.data) < 1 {
		d.fail()
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *decoder) int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *decoder) string() string {
	n := d.uint()
	if d.err != nil || n > uint64(len(d.data)) {
		d.fail()
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

func (d *decoder) bytes() []byte {
	n := d.uint()
	if d.err != nil || n > uint64(len(d.data)) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	b := append([]byte(nil), d.data[:n]...)
	d.data = d.data[n:]
	return b
}
