package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"caaction"
	// The wrappers below must spell the method signatures of the seams
	// they wrap, whose parameter types live in these packages; nothing
	// else is used from them.
	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/resolve"
	"caaction/internal/transport"
)

// Span names, in the order they are written out.
const (
	spAction = iota
	spStart
	spEntry
	spBody
	spExit
	spRound
	spDeliver
	spExceptResolve
	spSend
	spBind
	spWAL
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spAction:        "action",
	spStart:         "caaction.start",
	spEntry:         "core.entry",
	spBody:          "body",
	spExit:          "core.exit",
	spRound:         "resolve.round",
	spDeliver:       "resolve.deliver",
	spExceptResolve: "except.resolve",
	spSend:          "transport.send",
	spBind:          "transport.bind",
	spWAL:           "wal.append",
}

// span is one timed interval. Times are nanoseconds since the tracer's
// base; parent is an index into the tracer's spans or -1; tag is the
// number of the action instance ("a17" → 17), 0 for spans of the shared
// per-thread endpoints, which serve every instance.
type span struct {
	start, end int64
	parent     int32
	name       uint8
	tag        uint32
}

// Event counters the seams keep; a window's count is the difference of
// two readings.
const (
	cSends = iota
	cBinds
	cInstances
	cDeliverCalls
	cResolveCalls
	cWALAppends
	cWALInflightSum // sum over appends of the appends in flight as each began
	numCounters
)

type counters [numCounters]int64

func (c counters) minus(o counters) (d counters) {
	for i := range c {
		d[i] = c[i] - o[i]
	}
	return d
}

// slotCount bounds the instances that can be in flight at once; tags are
// sequential, so a slot is reused only 64Ki instances later.
const slotCount = 1 << 16

// instSlot collects what the role programs of one instance observe. Times
// are tracer nanoseconds, 0 meaning not yet seen.
type instSlot struct {
	lastEntry, lastReturn, firstRaise, lastHandler atomic.Int64
	handled                                        [roles]atomic.Int32
	// dec is written by role i's handler only and read after WaitDone.
	dec [roles]decision
}

type decision struct {
	resolved caaction.Exception
	raised   []caaction.Exception
}

func (s *instSlot) reset() {
	s.lastEntry.Store(0)
	s.lastReturn.Store(0)
	s.firstRaise.Store(0)
	s.lastHandler.Store(0)
	for i := range s.handled {
		s.handled[i].Store(0)
		s.dec[i] = decision{}
	}
}

// tracer records spans with one atomic add each into a fixed buffer and
// keeps the event counters. Spans are kept only while on is set (the timed
// window) and only for every every-th instance (or send), so the buffer
// holds a sample spread over the whole window.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	every uint32

	spans []span
	next  atomic.Int64

	slots []instSlot

	count       [numCounters]atomic.Int64
	walInflight atomic.Int64
}

func newTracer(base time.Time, capacity int, every uint32) *tracer {
	return &tracer{
		base:  base,
		every: max(every, 1),
		spans: make([]span, capacity),
		slots: make([]instSlot, slotCount),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) read() (c counters) {
	for i := range c {
		c[i] = t.count[i].Load()
	}
	return c
}

// keepTag reports whether spans of instance tag are recorded now.
func (t *tracer) keepTag(tag uint32) bool { return tag%t.every == 0 && t.on.Load() }

// keepNth reports whether the n-th event of a per-endpoint counter gets a
// span now.
func (t *tracer) keepNth(n int64) bool { return uint32(n)%t.every == 0 && t.on.Load() }

// begin opens a span and returns its index, or -1 when it is not kept or
// the buffer is full.
func (t *tracer) begin(name uint8, parent int32, tag uint32, keep bool) int32 {
	if !keep {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{start: t.now(), parent: parent, name: name, tag: tag}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// add records a span whose interval is already known.
func (t *tracer) add(name uint8, start, end int64, tag uint32) {
	i := t.next.Add(1) - 1
	if i < int64(len(t.spans)) {
		t.spans[i] = span{start: start, end: end, parent: -1, name: name, tag: tag}
	}
}

// recorded returns the spans kept, and how many were dropped because the
// buffer was full.
func (t *tracer) recorded() ([]span, int64) {
	n := t.next.Load()
	if n <= int64(len(t.spans)) {
		return t.spans[:n], 0
	}
	return t.spans, n - int64(len(t.spans))
}

func (t *tracer) slot(tag uint32) *instSlot { return &t.slots[tag%slotCount] }

// tagNum parses the instance number from an instance tag or an action
// identifier that starts with one ("a17", "a17!load-commit#1"); 0 when
// there is none.
func tagNum(id string) uint32 {
	if len(id) < 2 || id[0] != 'a' {
		return 0
	}
	var n uint32
	for i := 1; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + uint32(c-'0')
	}
	return n
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func atomicMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if (cur != 0 && cur <= v) || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// linkParents gives every instance span without a parent the action span
// of its instance, so each instance's spans form one tree.
func linkParents(spans []span) {
	root := make(map[uint32]int32)
	for i, s := range spans {
		if s.name == spAction {
			root[s.tag] = int32(i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.parent >= 0 || s.name == spAction || s.tag == 0 {
			continue
		}
		if r, ok := root[s.tag]; ok {
			s.parent = r
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (overlapping children counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered := int64(0)
		cs := kids[int32(i)]
		// Children are few; sort them by start and sweep.
		ivs := make([][2]int64, 0, len(cs))
		for _, c := range cs {
			a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		for j := 1; j < len(ivs); j++ {
			for k := j; k > 0 && ivs[k][0] < ivs[k-1][0]; k-- {
				ivs[k], ivs[k-1] = ivs[k-1], ivs[k]
			}
		}
		var curA, curB int64 = 0, -1
		for _, iv := range ivs {
			if iv[0] > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = iv[0], iv[1]
			} else if iv[1] > curB {
				curB = iv[1]
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeSpans writes the kept spans as tab-separated lines: index, name,
// start and end in ns since the run's base, parent index (-1 for none)
// and instance tag (0 for shared endpoints).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "idx\tname\tstart_ns\tend_ns\tparent\ttag")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\ta%d\n", i, spanNames[s.name], s.start, s.end, s.parent, s.tag)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- transport seam -------------------------------------------------------

// tracedNetwork times every endpoint bind of the wrapped network and hands
// out endpoints whose sends are counted and timed.
type tracedNetwork struct {
	inner caaction.Network
	tr    *tracer
}

func (n *tracedNetwork) Endpoint(addr string) (caaction.Endpoint, error) {
	// Binds are rare except on few-tcp, so every one is kept.
	n.tr.count[cBinds].Add(1)
	sp := n.tr.begin(spBind, -1, 0, n.tr.on.Load())
	ep, err := n.inner.Endpoint(addr)
	n.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return wrapEndpoint(ep, n.tr), nil
}

func (n *tracedNetwork) Close() error { return n.inner.Close() }

type tracedEndpoint struct {
	caaction.Endpoint
	tr *tracer
}

func (e *tracedEndpoint) Send(to string, msg protocol.Message) error {
	c := e.tr.count[cSends].Add(1)
	sp := e.tr.begin(spSend, -1, 0, e.tr.keepNth(c))
	err := e.Endpoint.Send(to, msg)
	e.tr.end(sp)
	return err
}

// The mux finds the delivery path of a bound endpoint by asserting these
// optional methods (internal/transport/mux.go); a wrapper that dropped one
// would silently move the traced run onto another path, and one that added
// one would promise what the wrapped endpoint cannot do.
type (
	daemonMarker interface{ MarkDaemon() }
	sinkSetter   interface {
		SetSink(func(transport.Delivery))
	}
	reinjector interface {
		Reinject(transport.Delivery) bool
	}
)

type fwdDaemon struct{ ep daemonMarker }

func (f fwdDaemon) MarkDaemon() { f.ep.MarkDaemon() }

type fwdSink struct{ ep sinkSetter }

func (f fwdSink) SetSink(fn func(transport.Delivery)) { f.ep.SetSink(fn) }

type fwdReinject struct{ ep reinjector }

func (f fwdReinject) Reinject(d transport.Delivery) bool { return f.ep.Reinject(d) }

// wrapEndpoint returns a traced endpoint that implements each optional
// method exactly when inner does.
func wrapEndpoint(inner caaction.Endpoint, tr *tracer) caaction.Endpoint {
	e := &tracedEndpoint{Endpoint: inner, tr: tr}
	dm, hasD := inner.(daemonMarker)
	sk, hasS := inner.(sinkSetter)
	rj, hasR := inner.(reinjector)
	d, s, r := fwdDaemon{dm}, fwdSink{sk}, fwdReinject{rj}
	switch {
	case hasD && hasS && hasR:
		return struct {
			*tracedEndpoint
			fwdDaemon
			fwdSink
			fwdReinject
		}{e, d, s, r}
	case hasD && hasS:
		return struct {
			*tracedEndpoint
			fwdDaemon
			fwdSink
		}{e, d, s}
	case hasD && hasR:
		return struct {
			*tracedEndpoint
			fwdDaemon
			fwdReinject
		}{e, d, r}
	case hasS && hasR:
		return struct {
			*tracedEndpoint
			fwdSink
			fwdReinject
		}{e, s, r}
	case hasD:
		return struct {
			*tracedEndpoint
			fwdDaemon
		}{e, d}
	case hasS:
		return struct {
			*tracedEndpoint
			fwdSink
		}{e, s}
	case hasR:
		return struct {
			*tracedEndpoint
			fwdReinject
		}{e, r}
	default:
		return e
	}
}

// tracedTransport returns a factory that builds the named registered
// transport with the System's own environment and wraps it.
func tracedTransport(name string, tr *tracer) (caaction.TransportFactory, error) {
	inner, err := caaction.TransportByName(name)
	if err != nil {
		return nil, err
	}
	return func(env caaction.TransportEnv) (caaction.Network, error) {
		n, err := inner(env)
		if err != nil {
			return nil, err
		}
		return &tracedNetwork{inner: n, tr: tr}, nil
	}, nil
}

// --- resolution seam ------------------------------------------------------

// tracedProtocol counts and times the per-round instances of the wrapped
// resolution protocol and the graph resolutions they ask for.
type tracedProtocol struct {
	inner caaction.ResolutionProtocol
	tr    *tracer
}

func (p tracedProtocol) Name() string { return p.inner.Name() }

func (p tracedProtocol) NewInstance(cfg resolve.Config) resolve.Instance {
	tr := p.tr
	tr.count[cInstances].Add(1)
	ti := &tracedInstance{tr: tr, tag: tagNum(cfg.Action), cur: -1}
	res := cfg.Resolve
	cfg.Resolve = func(raised []except.Raised) except.ID {
		tr.count[cResolveCalls].Add(1)
		sp := tr.begin(spExceptResolve, ti.cur, ti.tag, tr.keepTag(ti.tag))
		id := res(raised)
		tr.end(sp)
		return id
	}
	ti.inner = p.inner.NewInstance(cfg)
	return ti
}

// tracedInstance wraps one thread's engine for one round. The runtime
// drives an instance from one thread at a time, so cur (the open deliver
// span, parent of the resolutions it asks for) needs no synchronisation.
type tracedInstance struct {
	inner resolve.Instance
	tr    *tracer
	tag   uint32
	cur   int32
}

func (i *tracedInstance) Raise(exc except.Raised) resolve.Outcome { return i.inner.Raise(exc) }

func (i *tracedInstance) Deliver(from string, msg protocol.Message) (resolve.Outcome, error) {
	i.tr.count[cDeliverCalls].Add(1)
	sp := i.tr.begin(spDeliver, -1, i.tag, i.tr.keepTag(i.tag))
	prev := i.cur
	i.cur = sp
	out, err := i.inner.Deliver(from, msg)
	i.cur = prev
	i.tr.end(sp)
	return out, err
}

func (i *tracedInstance) State() resolve.State { return i.inner.State() }

// --- WAL seam -------------------------------------------------------------

// tracedRecorder times each append of the wrapped recorder; a *WAL's
// appends return once durable, so the time includes the group fsync.
type tracedRecorder struct {
	inner caaction.Recorder
	tr    *tracer
}

func (r *tracedRecorder) enter(action string) int32 {
	r.tr.count[cWALAppends].Add(1)
	r.tr.count[cWALInflightSum].Add(r.tr.walInflight.Add(1))
	tag := tagNum(action)
	return r.tr.begin(spWAL, -1, tag, r.tr.keepTag(tag))
}

func (r *tracedRecorder) exit(sp int32) {
	r.tr.end(sp)
	r.tr.walInflight.Add(-1)
}

func (r *tracedRecorder) RecordJoin(thread, action, role string) {
	sp := r.enter(action)
	r.inner.RecordJoin(thread, action, role)
	r.exit(sp)
}

func (r *tracedRecorder) RecordRaise(thread, action string, round int, exc string) {
	sp := r.enter(action)
	r.inner.RecordRaise(thread, action, round, exc)
	r.exit(sp)
}

func (r *tracedRecorder) RecordVote(thread, action string, round int, exc string) {
	sp := r.enter(action)
	r.inner.RecordVote(thread, action, round, exc)
	r.exit(sp)
}

func (r *tracedRecorder) RecordOutcome(thread, action, outcome string) {
	sp := r.enter(action)
	r.inner.RecordOutcome(thread, action, outcome)
	r.exit(sp)
}
