package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"caaction/internal/protocol"
	"caaction/internal/trace"
	"caaction/internal/vclock"
)

// Fault is a fault injector's verdict on one message.
type Fault int

// Fault verdicts.
const (
	// Deliver passes the message through unharmed.
	Deliver Fault = iota + 1
	// Drop loses the message (hardware fault / lost message, the paper's
	// l_mes).
	Drop
	// Corrupt delivers the message flagged as damaged; receivers treat it
	// as a failure exception per the §3.4 extension.
	Corrupt
)

// FaultFunc decides the fate of one message from one sender to one receiver.
type FaultFunc func(from, to string, msg protocol.Message) Fault

// Verdict is a perturbation applied to one message by a PerturbFunc — the
// richer fault model the chaos engine drives. The zero Verdict delivers the
// message unharmed.
type Verdict struct {
	// Fault is the base outcome; zero means Deliver.
	Fault Fault
	// Delay adds one-way delay on top of the latency model.
	Delay time.Duration
	// Copies delivers this many extra duplicates of the message (a retried
	// send observed twice). All copies arrive at the same instant.
	Copies int
	// Reorder exempts this message from the per-pair FIFO clamp, so a later
	// send on the same pair may overtake it (combine with Delay).
	Reorder bool
}

// PerturbFunc decides the perturbation for one message. It is invoked under
// the network lock in send order, so a stateful (seeded) injector observes a
// deterministic call sequence whenever the clock serializes execution.
type PerturbFunc func(from, to string, msg protocol.Message) Verdict

// Stats are the simulated network's traffic counters. Fields are written
// under the network lock but read with atomic loads, so harnesses may sample
// them while a scenario is running.
type Stats struct {
	Sent       int64 // messages accepted onto the wire (crash-suppressed sends excluded)
	Delivered  int64 // deliveries enqueued (duplicates counted)
	Dropped    int64
	Corrupted  int64
	Duplicated int64 // extra copies enqueued
	Reordered  int64 // messages exempted from the FIFO clamp
	Delayed    int64 // messages given perturbation delay
}

// LatencyFunc models one-way message latency; it is invoked under the
// network lock, so stateful models (jitter) stay deterministic.
type LatencyFunc func(from, to string) time.Duration

// FixedLatency returns a latency model with constant delay d — the paper's
// Tmmax parameter.
func FixedLatency(d time.Duration) LatencyFunc {
	return func(_, _ string) time.Duration { return d }
}

// JitterLatency returns base±jitter latency drawn from a deterministic
// seeded source. FIFO per pair is still enforced by the network.
func JitterLatency(base, jitter time.Duration, seed int64) LatencyFunc {
	rng := rand.New(rand.NewSource(seed))
	return func(_, _ string) time.Duration {
		if jitter <= 0 {
			return base
		}
		d := base + time.Duration(rng.Int63n(int64(2*jitter))) - jitter
		if d < 0 {
			d = 0
		}
		return d
	}
}

// SimConfig configures a simulated network.
type SimConfig struct {
	// Clock drives delivery timing; required.
	Clock vclock.Clock
	// Latency models one-way delay; nil means zero latency (and, on a real
	// clock with no fault injectors and no log, enables the lock-free send
	// fast path — pass FixedLatency(0) instead to model zero latency while
	// keeping every send on the locked path).
	Latency LatencyFunc
	// Metrics, when non-nil, counts sends as "msg.<Kind>" plus "msg.total".
	Metrics *trace.Metrics
	// Log, when non-nil, records send/deliver events.
	Log *trace.Log
}

// Per-kind event labels, precomputed so an enabled log never concatenates
// them per send (and a disabled one never touches them at all).
var (
	simSendLabels    = protocol.KindLabels("send.")
	simDropLabels    = protocol.KindLabels("drop.")
	simDupLabels     = protocol.KindLabels("dup.")
	simCrashedLabels = protocol.KindLabels("crashed.")
)

// Sim is an in-process simulated network. It guarantees reliable delivery
// and per-(sender,receiver) FIFO order even under jittered latency, by
// clamping each delivery to occur no earlier than the previous delivery on
// the same pair.
//
// Sends normally serialize on one network lock (which is what makes
// injected faults and the FIFO clamp deterministic under the virtual
// clock). A pristine real-time network — wall clock, zero latency, no
// fault injector ever installed, no log — routes sends over a lock-free
// fast path instead: per-(sender,receiver) FIFO is preserved by each
// receive queue's own ordering, and nothing else in that configuration
// observes cross-pair send order. This is the load harness's
// configuration, where the global lock would otherwise serialize every
// message of thousands of concurrent actions.
type Sim struct {
	cfg SimConfig
	// zeroLat and realtime gate the fast path; fixed at construction.
	zeroLat  bool
	realtime bool
	// pristine is true until a fault or perturbation injector is first
	// installed; it then latches false forever (in-flight clamp history
	// could otherwise be bypassed when an injector is removed again).
	pristine atomic.Bool
	closed   atomic.Bool

	// endpoints is keyed by address; sync.Map so fast-path sends resolve
	// destinations without the network lock.
	endpoints sync.Map // string -> *simEndpoint

	mu      sync.Mutex
	lastAt  map[[2]string]time.Duration
	fault   FaultFunc
	perturb PerturbFunc

	// counters are the interned per-kind "msg.<Kind>" counters plus
	// "msg.total", filled lazily (so only kinds actually sent appear in
	// metric snapshots) when cfg.Metrics is set. A send then costs one
	// atomic add per counter — no lock, no map, no string concat.
	counters [protocol.NumKinds]atomic.Pointer[trace.Counter]
	total    atomic.Pointer[trace.Counter]

	// stats fields are atomics: senders on the fast path bump them without
	// the network lock, and readers (a chaos harness sampling mid-scenario)
	// never race with senders.
	stats struct {
		sent, delivered, dropped, corrupted atomic.Int64
		duplicated, reordered, delayed      atomic.Int64
	}
}

var _ Network = (*Sim)(nil)

// NewSim returns a simulated network.
func NewSim(cfg SimConfig) *Sim {
	if cfg.Clock == nil {
		panic("transport: SimConfig.Clock is required")
	}
	s := &Sim{
		cfg:    cfg,
		lastAt: make(map[[2]string]time.Duration),
	}
	s.zeroLat = cfg.Latency == nil
	if cfg.Latency == nil {
		s.cfg.Latency = FixedLatency(0)
	}
	s.realtime = vclock.IsReal(cfg.Clock)
	s.pristine.Store(true)
	return s
}

// SetFault installs a fault injector applied to every send that begins
// after SetFault returns; nil restores fault-free operation (but the
// lock-free fast path stays off once any injector has been seen). On a
// pristine real-time network, sends already in flight inside the fast path
// when the first injector is installed may still deliver uninspected —
// install injectors before traffic starts when every message must be
// subject to them (the chaos engine does; its virtual-clock networks never
// use the fast path at all).
func (s *Sim) SetFault(f FaultFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f != nil {
		s.pristine.Store(false)
	}
	s.fault = f
}

// SetPerturb installs a perturbation injector applied to every send that
// begins after SetPerturb returns, after any SetFault injector has passed
// the message; nil removes it (but the lock-free fast path stays off once
// any injector has been seen). The first-installation visibility caveat on
// SetFault applies here too.
func (s *Sim) SetPerturb(f PerturbFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f != nil {
		s.pristine.Store(false)
	}
	s.perturb = f
}

// Stats returns a snapshot of the network's traffic counters. Safe to call
// at any time, including while a scenario is running.
func (s *Sim) Stats() Stats {
	return Stats{
		Sent:       s.stats.sent.Load(),
		Delivered:  s.stats.delivered.Load(),
		Dropped:    s.stats.dropped.Load(),
		Corrupted:  s.stats.corrupted.Load(),
		Duplicated: s.stats.duplicated.Load(),
		Reordered:  s.stats.reordered.Load(),
		Delayed:    s.stats.delayed.Load(),
	}
}

// CloseEndpoint crash-stops the endpoint bound to addr: the owning thread's
// pending and future receives observe ok=false (already-buffered deliveries
// are discarded, a crashed process does not drain its inbox), its subsequent
// sends are silently dropped, and peers' sends to addr fail with
// ErrUnknownAddr. It reports whether an endpoint was bound. This is the
// chaos engine's thread crash primitive; for a graceful detach use
// Endpoint.Close. The crash marker belongs to the endpoint incarnation, so
// re-binding the address with Endpoint starts a fresh, healthy endpoint.
func (s *Sim) CloseEndpoint(addr string) bool {
	x, ok := s.endpoints.Load(addr)
	if !ok {
		return false
	}
	ep := x.(*simEndpoint)
	ep.dead.Store(true)
	_ = ep.Close()
	return true
}

// Endpoint implements Network.
func (s *Sim) Endpoint(addr string) (Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	ep := &simEndpoint{net: s, addr: addr, queue: s.cfg.Clock.NewQueue()}
	if _, dup := s.endpoints.LoadOrStore(addr, ep); dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateAddr, addr)
	}
	return ep, nil
}

// Close implements Network.
func (s *Sim) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Swap(true) {
		return nil
	}
	s.endpoints.Range(func(_, x any) bool {
		x.(*simEndpoint).queue.Close()
		return true
	})
	return nil
}

// countSend bumps the interned per-kind and total counters; no-op without a
// Metrics. Interning is idempotent (Metrics.Counter returns the same
// pointer), so concurrent first sends of a kind race benignly.
func (s *Sim) countSend(kind protocol.Kind) {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	c := s.counters[kind].Load()
	if c == nil {
		c = m.Counter(protocol.MetricNames[kind])
		s.counters[kind].Store(c)
	}
	c.Add(1)
	t := s.total.Load()
	if t == nil {
		t = m.Counter("msg.total")
		s.total.Store(t)
	}
	t.Add(1)
}

// fastSend is the lock-free hot path: real clock, zero latency, no fault
// injector ever installed, no log. A
// message with a handle a Mux resolved goes straight to that endpoint; any
// other goes to the destination's sink when one is installed, else to its
// queue. Per-pair FIFO holds because the handle and the sink both deliver
// on this goroutine, in order, and the sink is only installed on the same
// pristine real-time configuration that enables fastSend, so the queue is
// bypassed uniformly per endpoint; nothing else in this configuration reads
// send order.
func (s *Sim) fastSend(src *simEndpoint, to string, msg *protocol.Message, h handle) error {
	if src.dead.Load() {
		return nil // crash-stopped sends never reach the wire
	}
	var dst *simEndpoint
	if h.ep != nil {
		dst, _ = h.sh.real.(*simEndpoint)
	}
	if dst == nil || dst.gone.Load() || dst.dead.Load() {
		// No handle, or its address was unbound since: look the
		// destination up by name, as a plain send does.
		x, ok := s.endpoints.Load(to)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownAddr, to)
		}
		dst, h = x.(*simEndpoint), handle{}
	}
	s.countSend(msg.Kind)
	s.stats.sent.Add(1)
	s.stats.delivered.Add(1)
	if h.ep != nil {
		h.deliver(src.addr, msg, false)
	} else if sp := dst.sink.Load(); sp != nil && !dst.dead.Load() {
		(*sp)(Delivery{From: src.addr, Msg: *msg})
	} else {
		dst.queue.Put(borrowDelivery(src.addr, msg, false))
	}
	return nil
}

// send transmits msg from src to address to. h is the destination endpoint a
// Mux resolved, or zero; only the fast path delivers by it.
func (s *Sim) send(src *simEndpoint, to string, msg *protocol.Message, h handle) error {
	from := src.addr
	kind := msg.Kind
	lg := s.cfg.Log
	if s.closed.Load() {
		return ErrClosed
	}
	if !kind.Valid() {
		return fmt.Errorf("transport: send of a message of %v", kind)
	}
	if lg == nil && s.realtime && s.zeroLat && s.pristine.Load() {
		return s.fastSend(src, to, msg, h)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if src.dead.Load() {
		// A crash-stopped thread's sends never reach the wire.
		if lg.Enabled() {
			lg.Add(s.cfg.Clock.Now(), from, simCrashedLabels[kind], "send suppressed")
		}
		return nil
	}
	x, ok := s.endpoints.Load(to)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAddr, to)
	}
	dst := x.(*simEndpoint)

	s.countSend(msg.Kind)
	s.stats.sent.Add(1)
	now := s.cfg.Clock.Now()
	if lg.Enabled() {
		lg.Add(now, from, simSendLabels[kind], fmt.Sprintf("to %s: %v", to, *msg))
	}

	fault := Deliver
	if s.fault != nil {
		fault = s.fault(from, to, *msg)
	}
	if fault == Drop {
		// The perturbation hook is not consulted for messages the legacy
		// fault injector already lost, per the SetPerturb contract.
		s.stats.dropped.Add(1)
		if lg.Enabled() {
			lg.Add(now, from, simDropLabels[kind], "to "+to)
		}
		return nil
	}
	var v Verdict
	if s.perturb != nil {
		v = s.perturb(from, to, *msg)
	}
	if v.Fault == Drop {
		s.stats.dropped.Add(1)
		if lg.Enabled() {
			lg.Add(now, from, simDropLabels[kind], "to "+to)
		}
		return nil
	}
	corrupt := fault == Corrupt || v.Fault == Corrupt
	if corrupt {
		s.stats.corrupted.Add(1)
	}

	at := now + s.cfg.Latency(from, to) + v.Delay
	if v.Delay > 0 {
		s.stats.delayed.Add(1)
	}
	pair := [2]string{from, to}
	if prev := s.lastAt[pair]; at < prev && !v.Reorder {
		at = prev // preserve per-pair FIFO under jitter and perturbation
	}
	if v.Reorder {
		// Leave lastAt untouched so later sends may overtake this one.
		s.stats.reordered.Add(1)
	} else {
		s.lastAt[pair] = at
	}
	copies := 1 + v.Copies
	if v.Copies > 0 {
		s.stats.duplicated.Add(int64(v.Copies))
		if lg.Enabled() {
			lg.Add(now, from, simDupLabels[kind], fmt.Sprintf("to %s ×%d", to, copies))
		}
	}
	for i := 0; i < copies; i++ {
		s.stats.delivered.Add(1)
		dst.queue.PutAfter(at-now, borrowDelivery(from, msg, corrupt))
	}
	return nil
}

type simEndpoint struct {
	net   *Sim
	addr  string
	queue *vclock.Queue
	// dead marks a crash-stop: buffered deliveries are discarded instead of
	// drained, unlike a graceful Close.
	dead atomic.Bool
	// sink, when set, receives fast-path deliveries synchronously on the
	// sender's goroutine instead of through queue. Installed by the mux for
	// its shared endpoints so sends skip the pump entirely; the callee must
	// be safe to invoke from arbitrary sender goroutines.
	sink atomic.Pointer[func(Delivery)]
	// gone marks an endpoint closed (gracefully or by a crash-stop), so a
	// send holding a handle to it falls back to the address lookup.
	gone atomic.Bool
}

var _ Endpoint = (*simEndpoint)(nil)

func (e *simEndpoint) Addr() string { return e.addr }

// SetSink installs (or, with nil, removes) the synchronous delivery sink for
// the fast path; see simEndpoint.sink.
func (e *simEndpoint) SetSink(fn func(Delivery)) {
	if fn == nil {
		e.sink.Store(nil)
		return
	}
	e.sink.Store(&fn)
}

// MarkDaemon marks receives on this endpoint as virtual-clock daemon waits;
// see vclock.Queue.SetDaemon. The Mux marks the shared endpoints its pumps
// read from.
func (e *simEndpoint) MarkDaemon() { e.queue.SetDaemon() }

func (e *simEndpoint) Send(to string, msg protocol.Message) error {
	return e.net.send(e, to, &msg, handle{})
}

// unbox copies a pooled delivery out of its box and recycles it.
func (e *simEndpoint) unbox(x any, ok bool) (Delivery, bool) {
	d, ok := unboxDelivery(x, ok)
	if !ok || e.dead.Load() {
		return Delivery{}, false // crash-stop: buffered deliveries are lost
	}
	return d, true
}

func (e *simEndpoint) Recv() (Delivery, bool) {
	return e.unbox(e.queue.Get())
}

func (e *simEndpoint) RecvTimeout(timeout time.Duration) (Delivery, bool) {
	return e.unbox(e.queue.GetTimeout(timeout))
}

func (e *simEndpoint) Pending() int {
	if e.dead.Load() {
		return 0
	}
	return e.queue.Len()
}

func (e *simEndpoint) Close() error {
	e.gone.Store(true)
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if e.net.endpoints.CompareAndDelete(e.addr, e) {
		// Forget the per-pair FIFO history involving this address: the
		// endpoint incarnation is gone (graceful close or crash-stop), so
		// retaining its entries would both leak — a long-lived system churns
		// through unboundedly many addresses — and clamp an unrelated future
		// incarnation's deliveries behind the dead one's schedule.
		for pair := range e.net.lastAt {
			if pair[0] == e.addr || pair[1] == e.addr {
				delete(e.net.lastAt, pair)
			}
		}
	}
	e.queue.Close()
	return nil
}
