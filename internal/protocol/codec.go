package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"time"

	"caaction/internal/except"
)

// Binary wire codec for the nine protocol messages, the TCP transport's
// encoding. A frame is one message with its sender; the transport carries
// frames inside node-wire batch entries (see AppendNodeBatchEntry):
//
//	frame   := tag(u8) from(string) action(string) msgFrom(string) fields...
//	tag     := kind + 1 (0 is invalid, catching zeroed buffers)
//	string  := uvarint byte-length, then that many bytes
//	int     := zigzag varint (encoding/binary's varint)
//	raised  := id(string) origin(string) info(string) at(int, nanoseconds)
//	[]raised:= uvarint count, then count × raised
//
// Each kind encodes its own fields after the common three, in a fixed
// order:
//
//	Exception, Relay  round exc(raised)
//	Suspended, Ack    round
//	Commit            round resolved(string) raised([]raised)
//	Propose           round resolved(string)
//	ToBeSignalled     exc(string: Exc.ID) round phase(int)
//	Enter             role(string)
//	App               role(string) payload
//
// App payloads carry a type tag for the common cooperation payload types
// (nil, string, bool, int, int64, float64, []byte); any other type falls
// back to a nested gob encoding of the interface value.
//
// AppendFrame appends to a caller-supplied buffer (the transport reuses
// one per connection), so a steady-state send performs zero codec
// allocations for the eight fixed-shape messages and for fast-path App
// payloads.
//
// On the receive side a frame decodes straight into a Message value.
// DecodeNodeBatch takes a per-connection Names table that interns the
// bounded name fields — the frame sender, From, Role, the exception
// identifiers (Exc.ID, Resolved, Raised.ID) and Raised.Origin — and the
// action identifiers, each in its own bounded table: an action's every
// message between two nodes repeats its identifier, so a steady stream
// allocates nothing per message but a new action's identifier, once.
// Raised.Info (free text), Commit's raised list and App payloads are
// decoded afresh.

// ErrCodec reports a malformed or truncated binary frame.
var ErrCodec = errors.New("protocol: malformed frame")

// App payload type tags for the binary codec's fast paths; payloadGob marks
// a nested gob encoding of any other type.
const (
	payloadNil = iota
	payloadString
	payloadBool
	payloadInt
	payloadInt64
	payloadFloat64
	payloadBytes
	payloadGob = 0xff
)

// AppendFrame appends the binary encoding of one message (with the sending
// endpoint's logical address) to buf and returns the extended buffer.
func AppendFrame(buf []byte, from string, m Message) ([]byte, error) {
	if !m.Kind.Valid() {
		return buf, fmt.Errorf("%w: cannot encode message of %v", ErrCodec, m.Kind)
	}
	buf = append(buf, byte(m.Kind)+1)
	buf = appendString(buf, from)
	buf = appendString(buf, m.Action)
	buf = appendString(buf, m.From)
	switch m.Kind {
	case KindException, KindRelay:
		buf = appendInt(buf, int64(m.Round))
		buf = appendRaised(buf, m.Exc)
	case KindSuspended, KindAck:
		buf = appendInt(buf, int64(m.Round))
	case KindCommit:
		buf = appendInt(buf, int64(m.Round))
		buf = appendString(buf, string(m.Resolved))
		buf = binary.AppendUvarint(buf, uint64(len(m.Raised)))
		for _, r := range m.Raised {
			buf = appendRaised(buf, r)
		}
	case KindPropose:
		buf = appendInt(buf, int64(m.Round))
		buf = appendString(buf, string(m.Resolved))
	case KindToBeSignalled:
		buf = appendString(buf, string(m.Exc.ID))
		buf = appendInt(buf, int64(m.Round))
		buf = appendInt(buf, int64(m.Phase))
	case KindEnter:
		buf = appendString(buf, m.Role)
	case KindApp:
		buf = appendString(buf, m.Role)
		var err error
		if buf, err = appendPayload(buf, m.Payload); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Node wire. Every TCP connection carries length-prefixed payloads whose
// first byte is the control escape 0x00, followed by the payload kind:
//
//	nodeWire  := 0x00 0x01 batch                    (batched messages)
//	           | 0x00 0x02 uvarint(grant)           (credit grant)
//	batch     := { entryLen(u32 big-endian) to(string) frame }...
//
// A batch carries N messages under one transport length prefix, so one
// coalesced flush pays the outer header and the syscall once for the whole
// flush window. Each entry names its destination thread address, so one
// connection can serve every thread behind the peer's listener. Entries
// keep fixed 4-byte lengths (not uvarints) so the sender can reserve the
// slot and backfill it after encoding in place.
const (
	nodeControlByte = 0x00
	nodeKindBatch   = 0x01
	nodeKindCredit  = 0x02
)

// NodeBatchHeaderLen is the size of the batch escape header appended by
// AppendNodeBatchHeader, and nodeBatchEntryLen the size of one entry's
// length slot.
const (
	NodeBatchHeaderLen = 2
	nodeBatchEntryLen  = 4
)

// AppendNodeBatchHeader opens a batched node frame: the control escape plus
// the batch kind. Entries follow via AppendNodeBatchEntry.
func AppendNodeBatchHeader(buf []byte) []byte {
	return append(buf, nodeControlByte, nodeKindBatch)
}

// AppendNodeBatchEntry appends one message for destination thread to to an
// open batch: a fixed 4-byte length slot backfilled after the entry is
// encoded in place. On error buf is returned truncated to its pre-entry
// length, so a failed entry never corrupts the open batch.
func AppendNodeBatchEntry(buf []byte, to, from string, msg Message) ([]byte, error) {
	if to == "" {
		return buf, fmt.Errorf("%w: node frame with empty destination", ErrCodec)
	}
	n0 := len(buf)
	out, err := AppendFrame(appendString(append(buf, 0, 0, 0, 0), to), from, msg)
	if err != nil {
		return out[:n0], err
	}
	binary.BigEndian.PutUint32(out[n0:], uint32(len(out)-n0-nodeBatchEntryLen))
	return out, nil
}

// IsNodeControl reports whether a node wire payload opens with the control
// escape.
func IsNodeControl(data []byte) bool {
	return len(data) > 0 && data[0] == nodeControlByte
}

// IsNodeBatch reports whether a node wire payload is a batched node frame.
func IsNodeBatch(data []byte) bool {
	return len(data) >= NodeBatchHeaderLen && data[0] == nodeControlByte && data[1] == nodeKindBatch
}

// IsNodeCredit reports whether a node wire payload is a credit grant.
func IsNodeCredit(data []byte) bool {
	return len(data) >= 2 && data[0] == nodeControlByte && data[1] == nodeKindCredit
}

// DecodeNodeBatch decodes a batched node frame, invoking fn once per entry
// in wire order. The destination is handed over in place, as a slice of
// data that is valid only during the call, so a receiver can look it up
// without allocating. Names and action identifiers are interned through
// names, which one connection's reader owns; nil decodes every string
// afresh. Decoding stops
// at the first malformed entry or the first fn error; a torn batch (entry
// length running past the frame) is a codec error even when earlier entries
// decoded cleanly, because the transport length-prefixes whole frames — a
// short one means corruption, not a partial read.
func DecodeNodeBatch(data []byte, names *Names, fn func(to []byte, from string, msg Message) error) error {
	if !IsNodeBatch(data) {
		return fmt.Errorf("%w: not a node batch", ErrCodec)
	}
	data = data[NodeBatchHeaderLen:]
	for len(data) > 0 {
		if len(data) < nodeBatchEntryLen {
			return fmt.Errorf("%w: truncated batch entry header", ErrCodec)
		}
		n := binary.BigEndian.Uint32(data)
		data = data[nodeBatchEntryLen:]
		if uint64(n) > uint64(len(data)) {
			return fmt.Errorf("%w: torn batch entry (%d bytes declared, %d remain)", ErrCodec, n, len(data))
		}
		d := decoder{data: data[:n], names: names}
		to := d.bytes()
		if d.err != nil {
			return d.err
		}
		if len(to) == 0 {
			return fmt.Errorf("%w: node frame with empty destination", ErrCodec)
		}
		from, msg, err := d.frame()
		if err != nil {
			return err
		}
		data = data[n:]
		if err := fn(to, from, msg); err != nil {
			return err
		}
	}
	return nil
}

// AppendNodeCredit appends a credit grant control frame: the receiver's
// advertisement that it has consumed messages and the sender may put grant
// more on the wire.
func AppendNodeCredit(buf []byte, grant int) []byte {
	buf = append(buf, nodeControlByte, nodeKindCredit)
	return binary.AppendUvarint(buf, uint64(grant))
}

// DecodeNodeCredit decodes a credit grant control frame.
func DecodeNodeCredit(data []byte) (grant int, err error) {
	if !IsNodeCredit(data) {
		return 0, fmt.Errorf("%w: not a credit grant", ErrCodec)
	}
	d := decoder{data: data[2:]}
	g := d.uvarint()
	if d.err != nil {
		return 0, d.err
	}
	if len(d.data) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes in credit grant", ErrCodec, len(d.data))
	}
	if g > math.MaxInt32 {
		return 0, fmt.Errorf("%w: credit grant %d out of range", ErrCodec, g)
	}
	return int(g), nil
}

// DecodeFrame decodes one binary frame produced by AppendFrame.
func DecodeFrame(data []byte) (from string, msg Message, err error) {
	d := decoder{data: data}
	return d.frame()
}

// frame decodes the rest of d's data as one frame, field by field in the
// order AppendFrame writes them.
func (d *decoder) frame() (from string, m Message, err error) {
	tag := d.byte()
	from = d.name()
	if m.Kind = Kind(tag - 1); !m.Kind.Valid() { // tag 0 wraps to an invalid kind
		if d.err != nil {
			return "", Message{}, d.err
		}
		return "", Message{}, fmt.Errorf("%w: unknown kind tag %d", ErrCodec, tag)
	}
	m.Action = d.action()
	m.From = d.name()
	switch m.Kind {
	case KindException, KindRelay:
		m.Round = d.int()
		m.Exc = d.raised()
	case KindSuspended, KindAck:
		m.Round = d.int()
	case KindCommit:
		m.Round = d.int()
		m.Resolved = except.ID(d.name())
		// A raised entry is at least 4 bytes: three empty strings + At.
		if n := d.count(4); n > 0 {
			m.Raised = make([]except.Raised, n)
			for i := range m.Raised {
				m.Raised[i] = d.raised()
			}
		}
	case KindPropose:
		m.Round = d.int()
		m.Resolved = except.ID(d.name())
	case KindToBeSignalled:
		m.Exc.ID = except.ID(d.name())
		m.Round = d.int()
		m.Phase = d.int()
	case KindEnter:
		m.Role = d.name()
	case KindApp:
		m.Role = d.name()
		m.Payload = d.payload()
	}
	if d.err != nil {
		return "", Message{}, d.err
	}
	if len(d.data) != 0 {
		return "", Message{}, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(d.data))
	}
	return from, m, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendInt(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func appendRaised(buf []byte, r except.Raised) []byte {
	buf = appendString(buf, string(r.ID))
	buf = appendString(buf, r.Origin)
	buf = appendString(buf, r.Info)
	return appendInt(buf, int64(r.At))
}

func appendPayload(buf []byte, payload any) ([]byte, error) {
	switch p := payload.(type) {
	case nil:
		return append(buf, payloadNil), nil
	case string:
		buf = append(buf, payloadString)
		return appendString(buf, p), nil
	case bool:
		buf = append(buf, payloadBool)
		if p {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case int:
		buf = append(buf, payloadInt)
		return appendInt(buf, int64(p)), nil
	case int64:
		buf = append(buf, payloadInt64)
		return appendInt(buf, p), nil
	case float64:
		buf = append(buf, payloadFloat64)
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(p)), nil
	case []byte:
		buf = append(buf, payloadBytes)
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		return append(buf, p...), nil
	default:
		// Anything else rides a nested gob encoding of the interface value,
		// so the payload type set matches the gob wire's exactly.
		var nested bytes.Buffer
		if err := gob.NewEncoder(&nested).Encode(&payload); err != nil {
			return buf, fmt.Errorf("%w: app payload %T: %v", ErrCodec, payload, err)
		}
		buf = append(buf, payloadGob)
		buf = binary.AppendUvarint(buf, uint64(nested.Len()))
		return append(buf, nested.Bytes()...), nil
	}
}

// decoder is a cursor over one frame; the first malformation latches err and
// every subsequent read returns zero values, so call sites stay linear.
// names, when non-nil, interns the frame's names and action identifier.
type decoder struct {
	data  []byte
	err   error
	names *Names
}

// Names interns the strings of decoded frames for one reader: thread, role
// and exception names repeat on every message between the same threads,
// and an action identifier on every message of that action, so a hit hands
// back the string decoded earlier instead of allocating a copy. The zero
// value is ready to use; a Names is confined to one goroutine. Names and
// action identifiers are kept in separate tables, so a stream of new
// actions never evicts the names: each holds at most namesCap strings (of
// at most namesMaxLen and idsMaxLen bytes) and is cleared when full, so a
// peer that sends ever-new strings cannot grow it.
type Names struct {
	m   map[string]string // names
	ids map[string]string // action identifiers
}

const (
	namesCap    = 256
	namesMaxLen = 64
	idsMaxLen   = 128
)

// intern returns b as a string, from table t when it is there, adding it
// when it is at most maxLen bytes long.
func intern(t *map[string]string, b []byte, maxLen int) string {
	if len(b) == 0 || len(b) > maxLen {
		return string(b)
	}
	if s, ok := (*t)[string(b)]; ok {
		return s
	}
	if *t == nil {
		*t = make(map[string]string)
	} else if len(*t) >= namesCap {
		clear(*t)
	}
	s := string(b)
	(*t)[s] = s
	return s
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s", ErrCodec, what)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.data) < 1 {
		d.fail("byte")
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *decoder) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.data = d.data[n:]
	return int(v)
}

func (d *decoder) int64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *decoder) string() string {
	return string(d.bytes())
}

// name reads a bounded name field, interned when d has a table.
func (d *decoder) name() string {
	if d.names == nil {
		return d.string()
	}
	return intern(&d.names.m, d.bytes(), namesMaxLen)
}

// action reads an action identifier, interned when d has a table.
func (d *decoder) action() string {
	if d.names == nil {
		return d.string()
	}
	return intern(&d.names.ids, d.bytes(), idsMaxLen)
}

// bytes reads a length-prefixed string in place, as a slice of the frame.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.data)) {
		d.fail("string")
		return nil
	}
	b := d.data[:n:n]
	d.data = d.data[n:]
	return b
}

// count reads a collection length, bounding it by the bytes remaining
// divided by the collection's minimum per-element encoding size, so a
// hostile length prefix cannot force an allocation any larger than the
// frame that carried it (a raised entry encodes to ≥ 4 bytes but occupies
// 56 in memory — without the element bound a 1 MiB frame could demand a
// ~56 MB slice before decoding fails).
func (d *decoder) count(minElemSize int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.data))/uint64(minElemSize) {
		d.fail("collection")
		return 0
	}
	return int(n)
}

func (d *decoder) raised() except.Raised {
	return except.Raised{
		ID:     except.ID(d.name()),
		Origin: d.name(),
		Info:   d.string(),
		At:     time.Duration(d.int64()),
	}
}

func (d *decoder) payload() any {
	switch tag := d.byte(); tag {
	case payloadNil:
		return nil
	case payloadString:
		return d.string()
	case payloadBool:
		return d.byte() != 0
	case payloadInt:
		return d.int()
	case payloadInt64:
		return d.int64()
	case payloadFloat64:
		if d.err != nil || len(d.data) < 8 {
			d.fail("float64")
			return nil
		}
		v := math.Float64frombits(binary.BigEndian.Uint64(d.data))
		d.data = d.data[8:]
		return v
	case payloadBytes:
		n := d.count(1)
		if d.err != nil {
			return nil
		}
		b := append([]byte(nil), d.data[:n]...)
		d.data = d.data[n:]
		return b
	case payloadGob:
		n := d.count(1)
		if d.err != nil {
			return nil
		}
		nested := d.data[:n]
		d.data = d.data[n:]
		var payload any
		if err := gob.NewDecoder(bytes.NewReader(nested)).Decode(&payload); err != nil && d.err == nil {
			d.err = fmt.Errorf("%w: app payload gob: %v", ErrCodec, err)
			return nil
		}
		return payload
	default:
		if d.err == nil {
			d.err = fmt.Errorf("%w: unknown payload tag %d", ErrCodec, tag)
		}
		return nil
	}
}
