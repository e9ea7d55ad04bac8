package caaction

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"caaction/internal/atomicobj"
	"caaction/internal/core"
	"caaction/internal/trace"
	"caaction/internal/transport"
	"caaction/internal/vclock"
)

// Clock abstracts the passage of time for a simulated or real distributed
// system; see WithVirtualTime, WithRealTime and WithClock.
type Clock = vclock.Clock

// Metrics is a concurrency-safe counter set; the runtime and transports
// record protocol and action counters into it ("msg.total",
// "action.entries", "resolve.calls", ...). The zero value is ready to use.
type Metrics = trace.Metrics

// Log is a bounded in-memory event log; attach one with WithLog. Event is
// one recorded entry.
type (
	Log   = trace.Log
	Event = trace.Event
)

// NewLog returns a Log retaining at most max events (oldest dropped first).
func NewLog(max int) *Log { return trace.NewLog(max) }

// Object is an external atomic object: state shared between actions with
// version counts, before-images for coordinated undo, and damage reports.
// ObjectOption customises Define, and Tx — available to role code via
// Context.Tx — tracks one role's use of objects inside an action.
type (
	Object       = atomicobj.Object
	ObjectOption = atomicobj.ObjectOption
	Tx           = atomicobj.Tx
	CloneFunc    = atomicobj.CloneFunc
)

// WithClone makes Define deep-copy object state with fn when taking
// before-images, for states that are not value types.
func WithClone(fn CloneFunc) ObjectOption { return atomicobj.WithClone(fn) }

// System is the public facade over the CA-action runtime: one node (or one
// whole simulation) hosting threads, a clock, a transport and an external
// atomic-object registry. Construct with New; zero options give a
// deterministic virtual-time simulation over the in-process transport with
// the paper's coordinated resolution protocol.
type System struct {
	rt      *core.Runtime
	clock   Clock
	virtual *vclock.Virtual // non-nil iff the clock is the virtual one
	net     Network
	metrics *Metrics
	log     *Log

	// Concurrent multi-action state: the demultiplexer StartAction instances
	// share (created lazily), the instance-tag sequence, the record of the
	// instance System.Thread's threads are roles of, and the closed marker
	// consulted by Thread and StartAction.
	muxOnce    sync.Once
	mux        *transport.Mux
	noInline   bool // WithoutInlineDelivery: force the queue delivery model
	actionSeq  atomic.Int64
	threadInst *core.Instance
	closed     atomic.Bool

	// Drain state: once draining is set, StartAction and Thread refuse new
	// work with ErrDraining while in-flight actions run to completion.
	// inflight counts actions admitted and not yet finished; idlers are
	// Drain calls waiting for it to reach zero.
	draining atomic.Bool
	drainMu  sync.Mutex
	inflight int
	idlers   []chan struct{}

	// Admission control (WithMaxInFlight / WithTenantBudget): budgets
	// checked under drainMu alongside the in-flight count; tenants tracks
	// per-tenant in-flight actions (allocated only when a tenant budget is
	// set), and rejected counts typed ErrOverloaded fast-rejects.
	maxInFlight  int
	tenantBudget int
	tenants      map[string]int
	rejected     *trace.Counter

	// Metrics endpoint (WithMetricsAddr): the bound /metrics HTTP listener
	// and server, closed by Close.
	metricsAddr string
	metricsSrv  *http.Server

	// Cluster mode (WithCluster): the placement predicate StartTagged uses
	// to pick this node's roles, and the node's bound data listener address.
	clusterLocal func(string) bool
	clusterAddr  string

	// runners are the goroutines StartAction runs roles on.
	runners roleRunners
}

// New assembles a System from functional options. See Option and the With*
// constructors for the available knobs.
func New(opts ...Option) (*System, error) {
	cfg := config{transportName: "sim"}
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	if cfg.cluster != nil {
		// Cluster nodes live on the wall clock: their peers are other OS
		// processes, which no virtual-time scheduler can coordinate.
		cfg.clockKind = clockReal
	}

	var clk Clock
	var virtual *vclock.Virtual
	switch cfg.clockKind {
	case clockReal:
		clk = vclock.NewReal()
	case clockCustom:
		clk = cfg.clock
		virtual, _ = clk.(*vclock.Virtual)
	default:
		virtual = vclock.NewVirtual()
		clk = virtual
	}

	if cfg.metrics == nil {
		cfg.metrics = &Metrics{}
	}

	net := cfg.network
	if net == nil {
		factory, err := TransportByName(cfg.transportName)
		if err != nil {
			return nil, err
		}
		env := cfg.env
		env.Clock = clk
		env.Metrics = cfg.metrics
		env.Log = cfg.log
		net, err = factory(env)
		if err != nil {
			return nil, err
		}
	}

	var clusterAddr string
	if cfg.cluster != nil {
		tcpNet, ok := net.(*transport.TCP)
		if !ok {
			_ = net.Close()
			return nil, fmt.Errorf("caaction: WithCluster requires the built-in tcp transport")
		}
		addr, err := tcpNet.ConfigureNode(cfg.cluster.ListenAddr, cfg.cluster.Local, cfg.cluster.Resolve)
		if err != nil {
			_ = net.Close()
			return nil, fmt.Errorf("caaction: WithCluster: %w", err)
		}
		clusterAddr = addr
	}

	protocol := cfg.protocol
	if protocol == nil && cfg.resolverName != "" {
		p, err := Resolver(cfg.resolverName)
		if err != nil {
			return nil, err
		}
		protocol = p
	}

	rt, err := core.New(core.Config{
		Clock:         clk,
		Protocol:      protocol,
		Metrics:       cfg.metrics,
		Log:           cfg.log,
		SignalTimeout: cfg.signalTimeout,
		Recorder:      cfg.recorder,
	})
	if err != nil {
		return nil, err
	}
	s := &System{
		rt:           rt,
		clock:        clk,
		virtual:      virtual,
		net:          net,
		metrics:      cfg.metrics,
		log:          cfg.log,
		noInline:     cfg.noInline,
		maxInFlight:  cfg.maxInFlight,
		tenantBudget: cfg.tenantBudget,
		rejected:     cfg.metrics.Counter("admission.rejected"),
		threadInst:   core.NewInstance(threadTag + "!"),
	}
	s.runners.init(clk)
	if cfg.tenantBudget > 0 {
		s.tenants = make(map[string]int)
	}
	if cfg.cluster != nil {
		s.clusterLocal = cfg.cluster.Local
		s.clusterAddr = clusterAddr
	}
	if cfg.metricsAddr != "" {
		if err := s.serveMetrics(cfg.metricsAddr); err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	return s, nil
}

// serveMetrics binds the WithMetricsAddr listener and serves the counter
// registry as a Prometheus text-format scrape on GET /metrics.
func (s *System) serveMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("caaction: WithMetricsAddr: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.WritePrometheus(w)
	})
	s.metricsAddr = ln.Addr().String()
	s.metricsSrv = &http.Server{Handler: mux}
	// An untracked OS goroutine: the scrape server answers wall-clock HTTP,
	// never touching the system clock.
	go func() { _ = s.metricsSrv.Serve(ln) }()
	return nil
}

// MetricsAddr returns the bound host:port of the WithMetricsAddr scrape
// listener, or "" when no metrics endpoint was configured.
func (s *System) MetricsAddr() string { return s.metricsAddr }

// waitClock returns the clock ActionHandle.Wait must integrate with, or nil
// when the system runs on the real clock (a channel wait then suffices and
// the per-action completion queue is never allocated).
func (s *System) waitClock() Clock {
	if _, ok := s.clock.(*vclock.Real); ok {
		return nil
	}
	return s.clock
}

// Go runs fn on a goroutine tracked by the system clock. Under virtual time
// this is mandatory for goroutines that perform actions: virtual time only
// advances when every tracked goroutine is blocked in a clock-mediated wait.
// To start the roles of an action, use StartAction, not one Go per role:
// from a goroutine the clock does not track, the first role started with Go
// can block while it is the only one the clock knows, and the clock then
// moves on, or declares deadlock, without its siblings. StartAction hands
// out every role before any of them can block.
func (s *System) Go(fn func()) { s.clock.Go(fn) }

// Wait blocks until every goroutine started with Go has returned and every
// role of the actions started so far has finished.
func (s *System) Wait() { s.clock.Wait() }

// Now reports the elapsed (virtual or real) time since the system started.
func (s *System) Now() time.Duration { return s.clock.Now() }

// Clock returns the system clock.
func (s *System) Clock() Clock { return s.clock }

// Metrics returns the system's counter set.
func (s *System) Metrics() *Metrics { return s.metrics }

// Log returns the event log attached with WithLog, or nil.
func (s *System) Log() *Log { return s.log }

// Network returns the system's transport network.
func (s *System) Network() Network { return s.net }

// Virtual reports whether the system runs on the deterministic virtual
// clock.
func (s *System) Virtual() bool { return s.virtual != nil }

// Define registers an external atomic object with its initial state.
func (s *System) Define(name string, initial any, opts ...ObjectOption) (*Object, error) {
	return s.rt.Objects().Define(name, initial, opts...)
}

// Object returns a previously defined external atomic object.
func (s *System) Object(name string) (*Object, error) {
	return s.rt.Objects().Get(name)
}

// Runtime exposes the underlying runtime for packages that build on
// caaction (such as caaction/prodcell). Application code should not need
// it.
func (s *System) Runtime() *core.Runtime { return s.rt }

// ClusterAddr returns the bound host:port of the node's shared data
// listener (WithCluster), or "" when the system is not a cluster node.
// Peers send frames for this node's threads to this address.
func (s *System) ClusterAddr() string { return s.clusterAddr }

// beginAction admits one action into the in-flight set, or refuses with
// ErrDraining/ErrSystemClosed once shutdown has begun and with a typed
// *OverloadedError once an admission budget (WithMaxInFlight,
// WithTenantBudget) is exhausted. Every successful beginAction is balanced
// by exactly one endAction with the same tenant when the action's last role
// finishes (or immediately, on a failed start).
func (s *System) beginAction(tenant string) error {
	if s.closed.Load() {
		return ErrSystemClosed
	}
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		// Typed refusal: the system is shutting down gracefully (Drain) or
		// tearing down (Close); either way new actions are not admitted.
		return ErrDraining
	}
	if s.maxInFlight > 0 && s.inflight >= s.maxInFlight {
		s.rejected.Add(1)
		return &OverloadedError{Limit: s.maxInFlight}
	}
	if s.tenants != nil {
		if s.tenants[tenant] >= s.tenantBudget {
			s.rejected.Add(1)
			return &OverloadedError{Limit: s.tenantBudget, Tenant: tenant}
		}
		s.tenants[tenant]++
	}
	s.inflight++
	return nil
}

func (s *System) endAction(tenant string) {
	s.drainMu.Lock()
	s.inflight--
	if s.tenants != nil {
		if s.tenants[tenant] <= 1 {
			// Delete rather than store zero so an unbounded tenant-name
			// space cannot grow the map without bound.
			delete(s.tenants, tenant)
		} else {
			s.tenants[tenant]--
		}
	}
	var idlers []chan struct{}
	if s.inflight == 0 {
		idlers, s.idlers = s.idlers, nil
	}
	s.drainMu.Unlock()
	for _, ch := range idlers {
		close(ch)
	}
}

// overloaded reports whether the global admission budget is currently
// exhausted, for Thread's read-only fast-reject (creating a thread
// consumes no action budget, but refusing new entry points while saturated
// keeps overload behaviour uniform across both start paths).
func (s *System) overloaded() bool {
	if s.maxInFlight <= 0 {
		return false
	}
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.inflight >= s.maxInFlight
}

// Drain gracefully quiesces the system: it stops admitting StartAction (and
// Thread) — both return ErrDraining — and blocks until every in-flight
// action has finished, or until ctx is cancelled (returning ctx's cause
// with the in-flight work still running). Drain does not close the system:
// transports keep carrying messages so in-flight resolutions complete, and
// this node keeps routing frames for actions hosted elsewhere. Call Close
// after Drain returns to release the network. Drain is idempotent and safe
// to call from multiple goroutines; all callers block until idle.
func (s *System) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainMu.Lock()
	if s.inflight == 0 {
		s.drainMu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	s.idlers = append(s.idlers, ch)
	s.drainMu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("caaction: drain interrupted: %w", context.Cause(ctx))
	}
}

// Draining reports whether Drain or Close has begun refusing new actions.
func (s *System) Draining() bool { return s.draining.Load() }

// Close shuts the system down: the demultiplexer (if any concurrent actions
// ran) and the network close, detaching every thread endpoint. Subsequent
// Thread and StartAction calls fail with ErrSystemClosed; calls racing
// Close observe ErrDraining (the typed "shutdown has begun" refusal) once
// the drain marker is set, never a half-closed system. Close does NOT wait
// for in-flight actions — they unwind through the cooperative interrupt
// path as their endpoints close. For a graceful shutdown, Drain first, then
// Close.
func (s *System) Close() error {
	s.draining.Store(true)
	s.closed.Store(true)
	s.runners.close()
	if s.metricsSrv != nil {
		_ = s.metricsSrv.Close()
	}
	_ = s.muxNet().Close() // via muxOnce, so a racing StartAction is safe
	return s.net.Close()
}
