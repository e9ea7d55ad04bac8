// Package core implements the paper's CA-action runtime: the distributed
// supporting system that provides nested coordinated atomic actions with
// coordinated exception handling (§3) as prototyped in distributed Ada 95
// (§5.1), rebuilt as a Go library.
//
// A Runtime hosts Threads (the paper's participating execution threads),
// each reading from its own endpoint of a transport.Mux. Threads perform CA actions described by
// Specs: they synchronise at the entry point, run their role bodies
// cooperatively, raise and resolve concurrent exceptions through a pluggable
// resolution protocol (internal/resolve), handle the resolved exception with
// per-role handlers, abort nested actions when an enclosing action raises,
// and leave synchronously through the signalling protocol (internal/signal),
// committing or undoing their effects on external atomic objects
// (internal/atomicobj).
//
// Interruption of a role body is cooperative: every blocking Context
// operation observes pending exceptions and returns a control error that the
// body must propagate. The runtime re-checks frame state after a body
// returns, so even a body that swallows control errors cannot corrupt the
// protocols.
package core

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"caaction/internal/atomicobj"
	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/resolve"
	"caaction/internal/signal"
	"caaction/internal/trace"
	"caaction/internal/transport"
	"caaction/internal/vclock"
)

// Config assembles a Runtime.
type Config struct {
	// Clock drives all timing; required.
	Clock vclock.Clock
	// Objects is the external atomic-object registry; created when nil.
	Objects *atomicobj.Registry
	// Protocol is the resolution protocol; resolve.Coordinated when nil.
	Protocol resolve.Protocol
	// Metrics, when non-nil, receives runtime counters.
	Metrics *trace.Metrics
	// Log, when non-nil, receives runtime events.
	Log *trace.Log
	// SignalTimeout bounds the wait for peers' toBeSignalled votes; when a
	// peer's vote does not arrive in time it is treated as a failure
	// exception (the §3.4 extension for lost messages). Zero disables the
	// timeout, which is correct for reliable transports.
	SignalTimeout time.Duration
	// Recorder, when non-nil, receives write-ahead protocol state: joins
	// and raises are recorded before the corresponding message is sent,
	// and outcomes when the action concludes, so a restarted node can
	// replay them (internal/wal). Exit votes are not recorded: no recovery
	// rule reads them, and a reborn thread that re-joins votes again.
	// With a recorder installed, threads also answer duplicate Enter
	// messages — a restarted peer re-running its entry barrier — once per
	// peer per frame, which is what lets a reborn thread re-join.
	Recorder Recorder
}

// Recorder is the write-ahead sink for protocol state. Implementations
// stamp their own timestamps (wall clock for the durable WAL, virtual
// clock for deterministic chaos) and must be safe for concurrent use —
// every thread of the runtime records through the same instance.
type Recorder interface {
	// RecordJoin is called before the thread announces itself at an
	// action's entry barrier.
	RecordJoin(thread, action, role string)
	// RecordRaise is called before an exception is raised into the given
	// resolution round.
	RecordRaise(thread, action string, round int, exc string)
	// RecordVote is no longer called by the runtime. It stays so that
	// existing recorders, including wrappers that forward to an inner
	// recorder, still satisfy the interface. Neither §3.4 recovery rule
	// (the chaos rebirth, the cluster's instance replay) reads a vote,
	// and a reborn thread that re-joins casts its vote again, so logging
	// it durably would only add an fsync round to every exit.
	RecordVote(thread, action string, round int, exc string)
	// RecordOutcome is called when the action concludes locally: "ok",
	// "undone", "failed", "signalled:<exc>", "aborted", "deadline" or
	// "error". A crash-stopped thread records nothing — that absence is
	// exactly what replay uses to find in-flight actions.
	RecordOutcome(thread, action, outcome string)
}

// Runtime hosts threads and the distributed CA-action machinery of one node
// or simulation.
type Runtime struct {
	clock   vclock.Clock
	objects *atomicobj.Registry
	proto   resolve.Protocol
	metrics *trace.Metrics
	log     *trace.Log
	sigTO   time.Duration
	rec     Recorder

	// counters are the runtime's metric counters, interned once at
	// construction so the per-action paths bump atomics instead of paying a
	// map lookup (and the string key's interface boxing) per event.
	counters struct {
		entries, rounds, handlerRuns, raises *trace.Counter
		undos, completions, undone, failed   *trace.Counter
		signalled, aborted, resolveCalls     *trace.Counter
		deadlined                            *trace.Counter
	}

	// Lifecycle pools for the concurrent multi-action runtime's high-churn
	// unit of work: recycled Threads (see Thread.Recycle) and action frames
	// (pushFrame/releaseFrame). Reuse is hygienic by construction — every
	// recycled object is scrubbed back to its zero state before it re-enters
	// a pool, so a pooled Get is indistinguishable from a fresh allocation
	// and deterministic executions (the golden chaos traces) are unaffected.
	threadPool sync.Pool
	framePool  sync.Pool
}

// New validates cfg and returns a Runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("core: Config.Clock is required")
	}
	if cfg.Objects == nil {
		cfg.Objects = atomicobj.NewRegistry(cfg.Clock)
	}
	if cfg.Protocol == nil {
		cfg.Protocol = resolve.Coordinated{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &trace.Metrics{}
	}
	rt := &Runtime{
		clock:   cfg.Clock,
		objects: cfg.Objects,
		proto:   cfg.Protocol,
		metrics: cfg.Metrics,
		log:     cfg.Log,
		sigTO:   cfg.SignalTimeout,
		rec:     cfg.Recorder,
	}
	rt.counters.entries = cfg.Metrics.Counter("action.entries")
	rt.counters.rounds = cfg.Metrics.Counter("action.rounds")
	rt.counters.handlerRuns = cfg.Metrics.Counter("action.handler_runs")
	rt.counters.raises = cfg.Metrics.Counter("action.raises")
	rt.counters.undos = cfg.Metrics.Counter("action.undos")
	rt.counters.completions = cfg.Metrics.Counter("action.completions")
	rt.counters.undone = cfg.Metrics.Counter("action.undone")
	rt.counters.failed = cfg.Metrics.Counter("action.failed")
	rt.counters.signalled = cfg.Metrics.Counter("action.signalled")
	rt.counters.aborted = cfg.Metrics.Counter("action.aborted")
	rt.counters.resolveCalls = cfg.Metrics.Counter("resolve.calls")
	rt.counters.deadlined = cfg.Metrics.Counter("action.deadline_aborts")
	return rt, nil
}

// Clock returns the runtime's clock.
func (rt *Runtime) Clock() vclock.Clock { return rt.clock }

// Objects returns the external atomic-object registry.
func (rt *Runtime) Objects() *atomicobj.Registry { return rt.objects }

// Metrics returns the runtime's counters.
func (rt *Runtime) Metrics() *trace.Metrics { return rt.metrics }

// Thread is one participating execution thread. A Thread is confined to one
// goroutine: all its methods, and all Context methods handed to its bodies
// and handlers, must be called from that goroutine.
type Thread struct {
	rt *Runtime
	id string
	ep transport.Endpoint
	// inst is the record of the mux instance this thread is a role of: its
	// prefix ("a7!") tags every top-level action the thread performs, so
	// concurrent instances sharing a transport stay distinguishable on the
	// wire (see internal/protocol's action-instance identifier format), and
	// it holds the identifiers the instance's threads share.
	inst *Instance
	// logOn caches whether the runtime has a log, so hot paths skip event
	// construction (and the boxing of logf arguments) entirely when
	// logging is disabled.
	logOn bool
	// sendFn is the bound send method, created once so per-round protocol
	// engines don't allocate a fresh method value each time they are wired.
	sendFn func(to string, msg protocol.Message)
	// deadline, when non-zero, is the absolute clock time after which the
	// thread's actions are doomed: every protocol wait is clamped to it and
	// expires with ErrDeadline (see SetDeadline). Zero — the default — means
	// no deadline, and costs the protocol waits one comparison.
	deadline time.Duration

	// Run-to-completion lane state (see inline.go): inline marks an adopted
	// endpoint and iep is its extended interface; router is the adapter
	// handed to the endpoint; park publishes the owner's current wait to
	// delivering goroutines. inRoute and deferred implement send deferral
	// while a delivering goroutine routes protocol steps on this thread.
	inline   bool
	iep      transport.InlineEndpoint
	router   threadRouter
	inRoute  bool
	deferred *[]transport.Outbound
	park     parkState

	stack    []*frame
	retained map[string][]transport.Delivery
	dead     map[string]bool
	seq      map[seqKey]int
	// idBuf is scratch for building instance identifiers; it carries no
	// per-instance state (an identifier the instance has not recorded yet
	// is copied into its own string before the buffer is reused).
	idBuf []byte
}

// seqKey identifies one (parent instance, spec name) nesting sequence; a
// struct key avoids the per-nesting string concatenation a composite string
// key would cost.
type seqKey struct {
	parent string
	name   string
}

// Instance is the record the role threads of one mux instance share: the
// instance's identifier prefix, its tag and the '!' terminator
// (protocol.TagInstance(tag, "")), and the action identifiers its threads
// derive. Cooperating threads perform the same nesting sequence, so they
// derive the same identifiers (the paper's "every thread has a name list of
// the nested actions it is to participate in"); the first thread to derive
// one records it here and the others share its string instead of building
// their own. The record keeps the last few identifiers only: a thread that
// finds its identifier evicted builds an equal string, so the record saves
// allocations and never decides an identifier.
type Instance struct {
	prefix string
	mu     sync.Mutex
	ids    [4]string
	next   int
}

// NewInstance returns the record of the instance whose identifier prefix is
// prefix.
func NewInstance(prefix string) *Instance {
	if len(prefix) < 2 || prefix[len(prefix)-1] != '!' {
		panic(fmt.Sprintf("core: %q is not an instance prefix", prefix))
	}
	return &Instance{prefix: prefix}
}

// InitFor readies a record, typically one embedded in the caller's
// per-instance state, for the instance tagged tag whose threads each begin
// with an action of spec, and returns the tag as a string. It builds that
// action's identifier "<tag>!<spec>#1" (what instancePID derives for it) in
// one allocation and records it, and the tag and the prefix are substrings
// of it, so the whole instance costs one string. The tag must be a valid
// instance tag.
func (in *Instance) InitFor(tag []byte, spec *Spec) string {
	var buf [64]byte
	b := append(append(buf[:0], tag...), '!')
	n := len(b)
	b = append(append(b, spec.Name...), "#1"...)
	id := string(b)
	*in = Instance{prefix: id[:n]}
	in.ids[0] = id
	return id[:n-1]
}

// id returns the recorded identifier spelled b, recording a copy of b when
// there is none.
func (in *Instance) id(b []byte) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.ids {
		if in.ids[i] == string(b) {
			return in.ids[i]
		}
	}
	s := string(b)
	in.ids[in.next] = s
	in.next = (in.next + 1) % len(in.ids)
	return s
}

// NewThreadOn creates a thread reading from a virtual endpoint handed out
// by internal/transport.Mux, as one participant of the mux instance whose
// record is inst, shared by the instance's threads. Every top-level action
// the thread performs gets the instance's prefix, which is what the mux
// demultiplexes inbound messages by.
func (rt *Runtime) NewThreadOn(id string, ep transport.Endpoint, inst *Instance) *Thread {
	if inst == nil || inst.prefix == "" {
		panic(fmt.Sprintf("core: thread %q: no instance record", id))
	}
	th, _ := rt.threadPool.Get().(*Thread)
	if th == nil {
		th = &Thread{
			rt:       rt,
			retained: make(map[string][]transport.Delivery),
			dead:     make(map[string]bool),
			seq:      make(map[seqKey]int),
			idBuf:    make([]byte, 0, 64),
		}
		th.sendFn = th.send
		th.router.th = th
	}
	th.id = id
	th.ep = ep
	th.inst = inst
	th.logOn = rt.log.Enabled()
	// Adopt the endpoint into the run-to-completion lane when it offers one
	// (real-time mux endpoints do); deliveries then execute inline against
	// this thread's parked waits instead of waking it per message. Refusal —
	// virtual clocks, plain endpoints, a disabled lane — leaves the thread on
	// the ordinary queue-mode loops.
	if iep, ok := ep.(transport.InlineEndpoint); ok && iep.AdoptRouter(&th.router) {
		th.inline = true
		th.iep = iep
	}
	return th
}

// ID returns the thread identifier.
func (th *Thread) ID() string { return th.id }

// SetDeadline dooms the thread's actions past the absolute clock time at:
// every blocking protocol and Context wait is clamped to it, and once it
// passes those waits return ErrDeadline (matching context.DeadlineExceeded),
// local effects are undone best-effort and the action unwinds — instead of
// consuming runtime budget on an outcome its caller has already abandoned.
// A deadline expiring during the exit exchange marks the missing votes as ƒ
// (the same §3.4 treatment as lost messages), so the exit still concludes
// coordinately. Zero clears the deadline. Call before Perform, from the
// thread's own goroutine.
func (th *Thread) SetDeadline(at time.Duration) { th.deadline = at }

// Close releases the thread's endpoint.
func (th *Thread) Close() error { return th.ep.Close() }

// MarkDead declares an action instance finished from this thread's point
// of view without performing it: stray deliveries for it are dropped
// instead of retained. Recovery uses it to reinstall replayed state for
// actions a restarted thread decides NOT to re-join (the deterministic
// abort of §3.4) — peers may still address messages to the old
// incarnation, and those must not pile up as retained state. Call from
// the thread's own goroutine, before Perform.
func (th *Thread) MarkDead(action string) {
	th.dead[action] = true
	delete(th.retained, action)
}

// Recycle scrubs an idle, closed thread and returns it to the runtime's
// pool, so the next NewThreadOn reuses its allocations (the
// struct, its bookkeeping maps, the bound send function) instead of paying
// full lifecycle freight per action instance. Only a thread's exclusive
// owner may call it, after Close, and must drop every reference: a recycled
// thread carries zero state from its previous incarnation — the stack is
// empty and the retained/dead/seq maps are cleared, so instance sequence
// numbers restart at #1. A thread still holding action frames is never
// pooled (the call is a no-op), since its state is mid-protocol.
func (th *Thread) Recycle() {
	if len(th.stack) != 0 {
		return
	}
	th.id, th.inst = "", nil
	th.ep = nil
	th.logOn = false
	th.deadline = 0
	th.inline = false
	th.iep = nil
	th.inRoute = false
	th.deferred = nil
	th.park = parkState{}
	clear(th.retained)
	clear(th.dead)
	clear(th.seq)
	th.rt.threadPool.Put(th)
}

// logf records a runtime event. Hot paths guard calls with th.logOn so a
// disabled log never pays for argument boxing or formatting; the internal
// check keeps cold call sites safe without a guard.
func (th *Thread) logf(kind, format string, args ...any) {
	if !th.logOn {
		return
	}
	th.rt.log.Addf(th.rt.clock.Now(), th.id, kind, format, args...)
}

// instancePID derives the agreed identifier (parsed form included) for the
// next instance of spec under the given parent frame (nil for top-level).
// All participants derive identical ids because cooperating threads perform
// the same nesting sequence — the paper's "every thread has a name list of
// the nested actions it is to participate in" — and the instance record
// hands them one shared string. The identifier is spelled in the thread's
// scratch buffer, so only the first thread of the instance to derive it
// allocates; the parsed form slices that string and extends the parent
// frame's, so nothing re-splits an identifier.
func (th *Thread) instancePID(parent *frame, spec *Spec) protocol.ParsedID {
	key := seqKey{name: spec.Name}
	b := th.idBuf[:0]
	if parent != nil {
		key.parent = parent.id
		b = append(append(b, parent.id...), '/')
	} else {
		// Top-level actions carry the mux instance tag.
		b = append(b, th.inst.prefix...)
	}
	th.seq[key]++
	b = append(b, spec.Name...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(th.seq[key]), 10)
	th.idBuf = b
	raw := th.inst.id(b)
	if parent != nil {
		return parent.pid.Child(raw)
	}
	return protocol.ParseID(raw)
}

// frame is one level of the thread's action stack (the paper's SAi).
type frame struct {
	th   *Thread
	spec *Spec
	id   string
	// pid is the identifier's parsed form (tag, parent, depth), computed
	// once here so no later path re-splits the identifier string.
	pid   protocol.ParsedID
	role  string
	prog  RoleProgram
	peers []string // participating threads, sorted by resolve.ThreadLess; shared with the Spec's cache, never mutated

	// Resolution state for the current round. decided is meaningful only
	// while hasDecided (value + flag instead of a pointer, so recording a
	// decision never heap-escapes an Outcome per round).
	round      int
	inst       resolve.Instance
	decided    resolve.Outcome
	hasDecided bool
	informed   bool

	// Exit / signalling state; sigDec is meaningful only while hasSigDec.
	sig       *signal.Instance
	sigDec    signal.Decision
	hasSigDec bool
	// votes buffers same-round votes that arrive before sig exists. Its
	// backing array survives recycling, with length 0 and every slot
	// zeroed (see releaseFrame).
	votes   []transport.Delivery
	epsilon except.ID
	// undoFn and resolveFn are the bound undo and resolve methods handed to
	// every exit's signalling instance and every round's resolution
	// instance, bound once per frame object. raiseErr, interruptErr and
	// abortErr are the control errors that unwind a body after a raise,
	// after an interruption and for an abort cascade (abortErr's target is
	// set when it is returned), and childAbort is the error with which a
	// nested action aborted by a cascade returns to this frame's Enter; the
	// frame hands out pointers to them. All six refer only to the frame and
	// survive recycling with their per-use fields cleared (see
	// releaseFrame).
	undoFn       func() error
	resolveFn    func(raised []except.Raised) except.ID
	raiseErr     pendingError
	interruptErr pendingError
	abortErr     pendingError
	childAbort   abortError

	// Buffers.
	future []transport.Delivery // messages for rounds not reached yet
	// entered marks arrivals at the entry barrier, indexed like peers;
	// enteredN counts distinct arrivals (duplicate Enters are idempotent).
	entered  []bool
	enteredN int
	// reann marks peers whose post-barrier duplicate Enter has been
	// answered (a restarted peer re-joining); lazily allocated — only
	// recovery paths ever touch it.
	reann []bool
	// apps buffers cooperation payloads per sender, indexed like peers;
	// sized on the first App payload. Its queues keep their capacity across
	// recycling, emptied and with every slot zeroed (see releaseFrame).
	apps []appQueue

	// Abort coordination: same-round resolution messages received for this
	// frame while the thread was nested inside it. The first one triggers
	// the §3.3.2 abort cascade; ALL of them are replayed into the frame's
	// resolution instance once the cascade reaches it — dropping any
	// (including baseline-protocol Relay/Propose/Ack traffic) can starve
	// the enclosing resolution and deadlock every participant. Like votes,
	// its backing array survives recycling with every slot zeroed.
	pendingAbort []transport.Delivery
	aborting     bool

	// tx is created by the first Context.Tx call: most bodies never touch
	// an external object, and a nil Tx informs, commits and undoes nothing.
	tx *atomicobj.Tx

	// gen counts this frame object's incarnations through the runtime's
	// frame pool. A Context captures the generation it was created for, so
	// a stale Context held past its action's end is detected even when the
	// frame object has been recycled into a new instance (the pre() check
	// against the stack top alone would no longer catch that).
	gen uint64
}

func (th *Thread) pushFrame(parent *frame, spec *Spec, role string, prog RoleProgram) *frame {
	peers := spec.sortedThreads()
	pid := th.instancePID(parent, spec)
	id := pid.Raw
	f, _ := th.rt.framePool.Get().(*frame)
	if f == nil {
		f = &frame{}
		f.undoFn = f.undo
		f.resolveFn = f.resolve
		f.raiseErr = pendingError{kind: kindRaise, frame: f}
		f.interruptErr = pendingError{kind: kindInterrupt, frame: f}
		f.abortErr = pendingError{kind: kindAbort, frame: f}
	}
	f.th = th
	f.spec = spec
	f.id = id
	f.pid = pid
	f.role = role
	f.prog = prog
	f.peers = peers
	if cap(f.entered) >= len(peers) {
		f.entered = f.entered[:len(peers)]
		for i := range f.entered {
			f.entered[i] = false
		}
	} else {
		f.entered = make([]bool, len(peers))
	}
	f.markEntered(th.id)
	th.stack = append(th.stack, f)
	// Consume messages that arrived before this thread entered the action.
	if pend := th.retained[id]; len(pend) > 0 {
		delete(th.retained, id)
		for i := range pend {
			th.route(&pend[i])
		}
	}
	return f
}

func (th *Thread) popFrame(f *frame) {
	th.dead[f.id] = true
	delete(th.retained, f.id)
	for i := len(th.stack) - 1; i >= 0; i-- {
		if th.stack[i] == f {
			th.stack = append(th.stack[:i], th.stack[i+1:]...)
			break
		}
	}
	th.releaseFrame(f)
}

// releaseFrame scrubs a popped frame back to the zero state and returns it
// to the runtime's pool. Hygiene contract: a recycled frame is
// indistinguishable from a freshly allocated one — no counters, buffered
// messages or payloads, parsed identifiers, transactions, protocol engines or
// per-instance closures survive into the next incarnation — apart from
//   - the bumped generation counter;
//   - the bound undo and resolve methods and the four control errors, which
//     refer only to the frame object and read its current incarnation when
//     used (abortErr's target and childAbort's fields are cleared);
//   - the capacity of the entered, votes, pendingAbort and apps buffers,
//     all at length 0 (entered's length is re-established per instance)
//     with every slot of their backing arrays zeroed, so no delivery or
//     payload outlives its action.
//
// Callers must not touch the frame after release; perform's control flow
// guarantees that (the only post-pop reads are of values copied out
// beforehand), and stale user Contexts are caught by the generation check
// in Context.pre.
func (th *Thread) releaseFrame(f *frame) {
	if f.sig != nil {
		f.sig.Release()
	}
	if f.inst != nil {
		resolve.Release(f.inst)
	}
	clear(f.votes)
	clear(f.pendingAbort)
	apps := f.apps[:cap(f.apps)]
	for i := range apps {
		apps[i].reset()
	}
	*f = frame{entered: f.entered[:0], votes: f.votes[:0], pendingAbort: f.pendingAbort[:0],
		apps: apps[:0], gen: f.gen + 1, undoFn: f.undoFn, resolveFn: f.resolveFn,
		raiseErr: f.raiseErr, interruptErr: f.interruptErr,
		abortErr: pendingError{kind: kindAbort, frame: f}}
	th.rt.framePool.Put(f)
}

// abort returns the frame's abort control error, unwinding to the enclosing
// frame whose instance id is target.
func (f *frame) abort(target string) *pendingError {
	f.abortErr.target = target
	return &f.abortErr
}

// txn returns the frame's transaction, creating it on first use.
func (f *frame) txn() *atomicobj.Tx {
	if f.tx == nil {
		f.tx = f.th.rt.objects.Begin(f.id)
	}
	return f.tx
}

// markEntered records one arrival at the frame's entry barrier, reporting
// whether the arrival was new. Arrivals from non-participants are ignored,
// and duplicates (a chaos fault re-delivering an Enter, or a restarted
// peer re-running its barrier) are idempotent.
func (f *frame) markEntered(thread string) bool {
	i := f.peerIndex(thread)
	if i < 0 || f.entered[i] {
		return false
	}
	f.entered[i] = true
	f.enteredN++
	return true
}

// reannounce records that this frame answered a restarted peer's duplicate
// Enter, returning true the first time per peer — the reply is sent once,
// so re-join stays bounded with no Enter ping-pong.
func (f *frame) reannounce(thread string) bool {
	i := f.peerIndex(thread)
	if i < 0 {
		return false
	}
	if f.reann == nil {
		f.reann = make([]bool, len(f.peers))
	}
	if f.reann[i] {
		return false
	}
	f.reann[i] = true
	return true
}

// appQueue is one sender's buffered cooperation payloads: buf[head:] are
// waiting, in arrival order.
type appQueue struct {
	buf  []any
	head int
}

// reset empties the queue, keeping its capacity and zeroing every slot.
func (q *appQueue) reset() {
	clear(q.buf)
	*q = appQueue{buf: q.buf[:0]}
}

// peerIndex returns thread's position in the frame's peers, or -1 for a
// thread outside the action.
func (f *frame) peerIndex(thread string) int {
	for i, p := range f.peers {
		if p == thread {
			return i
		}
	}
	return -1
}

// addApp buffers one cooperation payload from a peer. A payload from a
// thread outside the action is dropped: no role can receive it.
func (f *frame) addApp(from string, payload any) {
	i := f.peerIndex(from)
	if i < 0 {
		f.th.logf("route.drop", "App from non-participant %s in %s", from, f.id)
		return
	}
	if len(f.apps) < len(f.peers) {
		if cap(f.apps) < len(f.peers) {
			grown := make([]appQueue, len(f.peers))
			copy(grown, f.apps[:cap(f.apps)])
			f.apps = grown
		}
		f.apps = f.apps[:len(f.peers)]
	}
	f.apps[i].buf = append(f.apps[i].buf, payload)
}

// hasApp reports whether a payload from the peer at index i is buffered.
func (f *frame) hasApp(i int) bool {
	return i < len(f.apps) && f.apps[i].head < len(f.apps[i].buf)
}

// takeApp removes and returns the oldest payload from the peer at index i;
// hasApp(i) must hold. The queue rewinds once drained, so steady traffic
// reuses its buffer.
func (f *frame) takeApp(i int) any {
	q := &f.apps[i]
	payload := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return payload
}

func (th *Thread) top() *frame {
	if len(th.stack) == 0 {
		return nil
	}
	return th.stack[len(th.stack)-1]
}

func (th *Thread) frameFor(action string) (*frame, int) {
	for i := len(th.stack) - 1; i >= 0; i-- {
		if th.stack[i].id == action {
			return th.stack[i], i
		}
	}
	return nil, -1
}

// send transmits one protocol message, panicking only on programming errors
// (unknown destination is a wiring bug in a closed simulation). While a
// delivering goroutine routes protocol steps on this thread (inRoute), sends
// are deferred instead: the deliverer flushes them once it has released the
// endpoint locks, which both avoids lock cycles between deliverers sending
// toward each other and preserves per-pair FIFO ahead of the owner's wakeup.
func (th *Thread) send(to string, msg protocol.Message) { th.sendMsg(to, &msg) }

// sendMsg is send for callers that hold the message: it is copied only into
// the endpoint's Send or the deferred buffer.
func (th *Thread) sendMsg(to string, msg *protocol.Message) {
	if th.inRoute {
		if th.deferred == nil {
			th.deferred = transport.BorrowOutbound()
		}
		*th.deferred = append(*th.deferred, transport.Outbound{To: to, Msg: *msg})
		return
	}
	if err := th.ep.Send(to, *msg); err != nil {
		th.logf("send.error", "to %s: %v", to, err)
	}
}

// routeVerdict tells the interrupted Context operation how to unwind.
type routeVerdict struct {
	// interrupt: the innermost frame was informed of concurrent
	// exceptions; body/handler code must stop.
	interrupt bool
	// abortTarget: an enclosing action's exception aborts nested actions
	// up to (but not including) the frame with this instance id.
	abortTarget string
}

// route dispatches one delivery according to §3.3.2's receive rules.
func (th *Thread) route(d *transport.Delivery) routeVerdict {
	act := d.Msg.Action
	if act == "" {
		th.logf("route.drop", "unroutable protocol.%v", d.Msg.Kind)
		return routeVerdict{}
	}
	// Look in the (tiny) frame stack before the dead map: live instances
	// are never in the dead set, and this ordering spares the per-message
	// map lookup on the hot delivery path.
	f, idx := th.frameFor(act)
	if f == nil {
		if th.dead[act] {
			return routeVerdict{}
		}
		// "retain the Exception or Suspended message till Ti enters A*":
		// the thread has not entered this action instance yet.
		th.retained[act] = append(th.retained[act], *d)
		return routeVerdict{}
	}
	if idx == len(th.stack)-1 {
		return th.routeInnermost(f, d)
	}
	return th.routeEnclosing(f, d)
}

// routeInnermost handles a delivery for the thread's active action.
func (th *Thread) routeInnermost(f *frame, d *transport.Delivery) routeVerdict {
	if d.Corrupt {
		return th.routeCorrupt(f, d)
	}
	m := &d.Msg
	switch m.Kind {
	case protocol.KindEnter:
		if !f.markEntered(m.From) && th.rt.rec != nil && f.enteredN == len(f.peers) {
			// A duplicate Enter after the barrier completed, on a runtime
			// with a recorder: a restarted peer is re-running its entry
			// barrier. Answer once so its barrier can complete.
			if f.reannounce(m.From) {
				th.send(m.From, protocol.Message{Kind: protocol.KindEnter, Action: f.id, From: th.id, Role: f.role})
			}
		}
		return routeVerdict{}

	case protocol.KindApp:
		f.addApp(m.From, m.Payload)
		return routeVerdict{}

	case protocol.KindToBeSignalled:
		switch {
		case m.Round < f.round:
			th.logf("vote.stale", "from %s round %d < %d", m.From, m.Round, f.round)
		case m.Round > f.round:
			f.future = append(f.future, *d)
		case f.sig != nil:
			dec, err := f.sig.Deliver(m.From, m)
			if err != nil {
				th.logf("vote.error", "%v", err)
			} else if dec.Done {
				f.sigDec, f.hasSigDec = dec, true
			}
		default:
			f.votes = append(f.votes, *d)
		}
		return routeVerdict{}

	default:
		if !m.Kind.Resolution() {
			th.logf("route.drop", "unexpected protocol.%v for %s", m.Kind, f.id)
			return routeVerdict{}
		}
		r := m.Round
		switch {
		case r < f.round:
			return routeVerdict{}
		case r > f.round:
			f.future = append(f.future, *d)
			return routeVerdict{}
		}
		// A same-round Exception or Suspended while an exit attempt is in
		// progress means a peer raised instead of voting: the exit attempt
		// is abandoned and a resolution round begins (stale votes are
		// discarded by their round tags).
		if f.sig != nil {
			f.sig.Release()
			f.sig = nil
			f.sigDec, f.hasSigDec = signal.Decision{}, false
			if th.logOn {
				th.logf("exit.abandoned", "%s: exception round %d during exit", f.id, r)
			}
		}
		th.ensureInstance(f)
		out, err := f.inst.Deliver(d.From, d.Msg)
		if err != nil {
			th.logf("resolve.error", "%v", err)
			return routeVerdict{}
		}
		return th.applyOutcome(f, d, out)
	}
}

func (th *Thread) applyOutcome(f *frame, d *transport.Delivery, out resolve.Outcome) routeVerdict {
	v := routeVerdict{}
	if out.Informed {
		f.informed = true
		v.interrupt = true
		// "exception information ⇒ uninformed external objects".
		if d.Msg.Kind == protocol.KindException {
			f.tx.Inform(d.Msg.Exc)
		}
	}
	if out.Decided && !f.hasDecided {
		f.decided, f.hasDecided = out, true
	}
	return v
}

// routeEnclosing handles a delivery for an action the thread is nested
// inside of.
func (th *Thread) routeEnclosing(f *frame, d *transport.Delivery) routeVerdict {
	m := &d.Msg
	switch m.Kind {
	case protocol.KindToBeSignalled:
		switch {
		case m.Round < f.round:
		case m.Round > f.round:
			f.future = append(f.future, *d)
		default:
			f.votes = append(f.votes, *d)
		}
		return routeVerdict{}

	case protocol.KindApp:
		f.addApp(m.From, m.Payload)
		return routeVerdict{}

	default:
		// Every round-tagged resolution message — Exception and Suspended,
		// but equally the baseline protocols' Relay/Propose/Ack and a
		// Commit — is evidence of exceptional activity in the enclosing
		// action. §3.3.2: "if A* contains A then abort all nested actions
		// until A*". Buffer the delivery; the whole batch is replayed into
		// the enclosing frame's resolution instance once the cascade
		// reaches it (absorbAbort). Dropping any of them — the bug this
		// branch once had for Relay — starves protocols that need relayed
		// knowledge and deadlocks the resolution.
		if !m.Kind.Resolution() {
			th.logf("route.drop", "unexpected protocol.%v for enclosing %s", m.Kind, f.id)
			return routeVerdict{}
		}
		r := m.Round
		switch {
		case r < f.round:
			return routeVerdict{}
		case r > f.round:
			f.future = append(f.future, *d)
			return routeVerdict{}
		}
		f.pendingAbort = append(f.pendingAbort, *d)
		return routeVerdict{abortTarget: f.id}
	}
}

// routeCorrupt applies the §3.4 extension: a corrupted message is treated as
// a failure-exception vote during signalling, and dropped otherwise.
func (th *Thread) routeCorrupt(f *frame, d *transport.Delivery) routeVerdict {
	if f.sig != nil {
		dec := f.sig.MarkFailed(d.From)
		if dec.Done {
			f.sigDec, f.hasSigDec = dec, true
		}
		th.logf("corrupt", "vote from %s treated as ƒ", d.From)
		return routeVerdict{}
	}
	th.logf("corrupt", "dropped corrupt protocol.%v from %s", d.Msg.Kind, d.From)
	return routeVerdict{}
}

// ensureInstance lazily creates the resolution-protocol engine for the
// frame's current round.
func (th *Thread) ensureInstance(f *frame) {
	if f.inst != nil {
		return
	}
	f.inst = th.rt.proto.NewInstance(resolve.Config{
		Action:  f.id,
		Self:    th.id,
		Peers:   f.peers,
		Round:   f.round,
		Send:    th.sendFn,
		Resolve: f.resolveFn,
	})
}

// resolve is the resolution procedure over the round's raised exceptions,
// modelling its Treso cost. The frame binds it once, as resolveFn, when it
// is first allocated.
func (f *frame) resolve(raised []except.Raised) except.ID {
	th := f.th
	th.rt.counters.resolveCalls.Add(1)
	th.rt.clock.Sleep(f.spec.Timing.Resolution)
	id, err := f.spec.Graph.ResolveRaised(raised)
	if err != nil {
		th.logf("resolve.error", "%v", err)
		return f.spec.Graph.Root()
	}
	return id
}

// drainFuture replays buffered messages that have become current after a
// round advance.
func (th *Thread) drainFuture(f *frame) routeVerdict {
	var verdict routeVerdict
	pending := f.future
	f.future = nil
	for i := range pending {
		v := th.route(&pending[i])
		if v.interrupt {
			verdict.interrupt = true
		}
		if v.abortTarget != "" && verdict.abortTarget == "" {
			verdict.abortTarget = v.abortTarget
		}
	}
	return verdict
}
