package caaction

import (
	"fmt"
	"time"
)

// Option configures New. Options are applied in order; where two options
// set the same knob (e.g. WithVirtualTime and WithRealTime) the last wins.
// Invalid combinations surface as an error from New, never as a panic.
type Option func(*config)

type clockKind int

const (
	clockVirtual clockKind = iota // the default
	clockReal
	clockCustom
)

type config struct {
	clockKind clockKind
	clockSet  bool  // an explicit clock option was given
	clock     Clock // clockCustom only

	transportName string
	transportSet  bool // an explicit With*Transport option was given
	jitterSet     bool
	network       Network
	env           TransportEnv

	resolverName string
	protocol     ResolutionProtocol

	signalTimeout time.Duration
	metrics       *Metrics
	log           *Log
	recorder      Recorder
	workers       int

	maxInFlight  int
	tenantBudget int
	metricsAddr  string

	muxShards int
	noInline  bool

	cluster *ClusterConfig

	err error
}

// validate rejects conflicting option combinations once all options have
// been applied (so the check is order-independent).
func (c *config) validate() error {
	if c.err != nil {
		return c.err
	}
	if c.network != nil && c.transportSet {
		return fmt.Errorf("caaction: WithNetwork conflicts with selecting a transport by name; pass one or the other")
	}
	if c.network != nil && (c.jitterSet || c.env.Peers != nil) {
		return fmt.Errorf("caaction: WithJitter/WithPeer configure registry-built transports and have no effect with WithNetwork")
	}
	if c.protocol != nil && c.resolverName != "" {
		return fmt.Errorf("caaction: WithResolutionProtocol conflicts with WithResolver(%q); pass one or the other", c.resolverName)
	}
	if c.cluster != nil {
		if c.network != nil {
			return fmt.Errorf("caaction: WithCluster conflicts with WithNetwork; the cluster runtime owns the transport")
		}
		if c.transportSet && c.transportName != "tcp" {
			return fmt.Errorf("caaction: WithCluster requires the tcp transport, not %q", c.transportName)
		}
		if c.env.Peers != nil {
			return fmt.Errorf("caaction: WithCluster conflicts with WithPeer; peers come from the cluster resolver")
		}
		if c.clockKind == clockCustom {
			return fmt.Errorf("caaction: WithCluster conflicts with WithClock; cluster nodes run on the real clock")
		}
		if c.clockKind == clockVirtual && c.clockSet {
			return fmt.Errorf("caaction: WithCluster conflicts with WithVirtualTime; cluster nodes run on the real clock")
		}
	}
	return nil
}

func (c *config) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("caaction: "+format, args...)
	}
}

// WithVirtualTime runs the system on the deterministic virtual clock: a
// conservative discrete-event scheduler under which whole distributed
// executions are reproducible and simulated minutes pass in microseconds.
// This is the default.
func WithVirtualTime() Option {
	return func(c *config) { c.clockKind, c.clockSet = clockVirtual, true }
}

// WithRealTime runs the system on the wall clock, for production deployments
// and for workloads cancelled from real-time contexts.
func WithRealTime() Option {
	return func(c *config) { c.clockKind, c.clockSet = clockReal, true }
}

// WithClock supplies a custom Clock implementation.
func WithClock(clk Clock) Option {
	return func(c *config) {
		if clk == nil {
			c.fail("WithClock: nil clock")
			return
		}
		c.clockKind = clockCustom
		c.clockSet = true
		c.clock = clk
	}
}

// WithSimTransport selects the in-process simulated network (the default)
// with the given one-way message latency (the paper's Tmmax).
func WithSimTransport(latency time.Duration) Option {
	return func(c *config) {
		c.transportName = "sim"
		c.transportSet = true
		c.env.Latency = latency
	}
}

// WithJitter spreads the sim transport's latency uniformly over
// [latency, latency+jitter], seeded for reproducibility.
func WithJitter(jitter time.Duration, seed int64) Option {
	return func(c *config) {
		c.jitterSet = true
		c.env.Jitter = jitter
		c.env.Seed = seed
	}
}

// WithTCPTransport selects the TCP network, speaking the length-prefixed
// binary codec, for genuinely distributed deployments. addr is the host:port local endpoints listen on;
// empty means loopback with ephemeral ports. Combine with WithPeer to
// introduce threads served by other processes, and usually with
// WithRealTime.
func WithTCPTransport(addr string) Option {
	return func(c *config) {
		c.transportName = "tcp"
		c.transportSet = true
		c.env.ListenAddr = addr
	}
}

// WithPeerWindow sets the per-peer credit window, in messages, that this
// node advertises to dialing peers (cluster nodes, tcp transport). A
// dialing peer may have at most window unacknowledged messages on the wire
// plus window pending locally before its sends fail typed with
// ErrPeerStalled — so the window bounds both this node's ingress buffering
// and the sender's memory when this node stalls. The default (4096) suits
// LAN clusters; lower it to tighten backpressure, raise it for
// high-latency links. n must be positive.
func WithPeerWindow(n int) Option {
	return func(c *config) {
		if n <= 0 {
			c.fail("WithPeerWindow: window must be positive, got %d", n)
			return
		}
		c.env.PeerWindow = n
	}
}

// WithPeer records the host:port of a logical thread address served by
// another process (tcp transport).
func WithPeer(thread, hostport string) Option {
	return func(c *config) {
		if c.env.Peers == nil {
			c.env.Peers = make(map[string]string)
		}
		c.env.Peers[thread] = hostport
	}
}

// WithTransport selects a registered transport by name ("sim", "tcp", or a
// name added with RegisterTransport) — the string form used by command-line
// flags. The name is validated by New.
func WithTransport(name string) Option {
	return func(c *config) {
		c.transportName = name
		c.transportSet = true
	}
}

// WithNetwork supplies a fully constructed Network, bypassing the transport
// registry. The System takes ownership and closes it on Close.
func WithNetwork(n Network) Option {
	return func(c *config) {
		if n == nil {
			c.fail("WithNetwork: nil network")
			return
		}
		c.network = n
	}
}

// WithResolver selects a registered resolution protocol by name
// ("coordinated", "cr86", "r96", or a name added with RegisterResolver) —
// the string form used by command-line flags. The name is validated by New.
// The default is "coordinated", the paper's own algorithm.
func WithResolver(name string) Option {
	return func(c *config) { c.resolverName = name }
}

// WithResolutionProtocol supplies a resolution protocol directly.
func WithResolutionProtocol(p ResolutionProtocol) Option {
	return func(c *config) {
		if p == nil {
			c.fail("WithResolutionProtocol: nil protocol")
			return
		}
		c.protocol = p
	}
}

// WithSignalTimeout bounds every action's wait for peers' exit votes; a
// missing vote is then treated as a failure exception ƒ (the §3.4 extension
// for lost messages). Zero — the default — disables the timeout, which is
// correct for reliable transports. Per-action overrides come from
// SpecBuilder.SignalTimeout.
func WithSignalTimeout(d time.Duration) Option {
	return func(c *config) {
		if d < 0 {
			c.fail("WithSignalTimeout: negative duration %v", d)
			return
		}
		c.signalTimeout = d
	}
}

// WithWorkers runs StartAction roles on a resident pool of n role workers
// instead of a fresh goroutine per role, so sustained high-concurrency
// action churn reuses warm stacks (and, with them, the runtime's pooled
// threads and endpoints) instead of paying full lifecycle cost per action.
//
// Dispatch is non-blocking and all-or-nothing per action: either every
// role gets an idle worker immediately, or the action falls back to the
// goroutine-per-role path — StartAction never waits for pool capacity, so
// a saturated pool degrades to the unpooled lifecycle rather than queueing
// (and role bodies that start and wait on further actions cannot deadlock
// the pool). Actions with more roles than n always bypass the pool, as do
// systems whose custom Clock cannot host resident daemon goroutines. Size
// n at roughly (expected concurrent actions) x (roles per action) so the
// fast path dominates. Zero (the default) disables the pool.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail("WithWorkers: negative pool size %d", n)
			return
		}
		c.workers = n
	}
}

// WithMuxShards sets the stripe count of the concurrent-action
// demultiplexer's address table. Each logical thread address hashes to one
// stripe, and a stripe's lock serialises delivery, open and close for the
// addresses it owns — so a workload whose actions fan in on a few hot
// thread addresses contends on a few stripes no matter how large the table
// is, while a wide address space spreads across all of them. n is rounded
// up to a power of two; the default is 32. Zero keeps the default; negative
// values fail New.
func WithMuxShards(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail("WithMuxShards: negative shard count %d", n)
			return
		}
		c.muxShards = n
	}
}

// WithoutInlineDelivery disables the run-to-completion delivery lane of the
// concurrent-action demultiplexer and restores the queue-per-thread model:
// every delivery is buffered and the receiving thread's own goroutine is
// woken to process it. The inline lane — on by default under the real clock
// — routes protocol steps for co-located threads on the sender's goroutine
// and skips the queue hand-off and scheduler wakeup per hop; disable it to
// isolate a suspected fast-path bug or to compare scheduling models under
// load. Virtual-time systems always use the queue model (determinism
// requires the scheduler to mediate every hand-off), so this option is a
// no-op under WithVirtualTime.
func WithoutInlineDelivery() Option {
	return func(c *config) { c.noInline = true }
}

// WithMaxInFlight bounds the number of simultaneously in-flight action
// instances admitted by StartAction/StartTagged: once n actions have been
// admitted and not yet finished, further starts fast-reject with a typed
// *OverloadedError (matching ErrOverloaded) instead of queueing — the
// admission-control half of keeping tail latency bounded under overload
// (shed at the door; never collapse into an unbounded queue). Thread also
// refuses with ErrOverloaded while the budget is exhausted. Zero — the
// default — disables admission control. Size n near the concurrency at
// which throughput saturates (the caload sweep's knee).
func WithMaxInFlight(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail("WithMaxInFlight: negative budget %d", n)
			return
		}
		c.maxInFlight = n
	}
}

// WithTenantBudget bounds the in-flight actions of each single tenant
// (WithTenant on StartAction) to n, so one noisy workload exhausts its own
// budget — and fast-rejects with a *OverloadedError naming the tenant —
// while other tenants keep being admitted. Actions started without a tenant
// share the "" tenant. The global WithMaxInFlight budget (if any) still
// applies on top. Zero disables per-tenant budgeting.
func WithTenantBudget(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail("WithTenantBudget: negative budget %d", n)
			return
		}
		c.tenantBudget = n
	}
}

// WithMetricsAddr serves the system's counter registry as a Prometheus
// text-format scrape: an HTTP listener binds addr (host:port; ":0" for an
// ephemeral port, see System.MetricsAddr for the bound address) and answers
// GET /metrics with every counter — protocol messages, action outcomes,
// admission rejects — as "caaction_"-prefixed monotonic counters. The
// listener is bound by New (a bind failure fails New) and closed by Close.
func WithMetricsAddr(addr string) Option {
	return func(c *config) {
		if addr == "" {
			c.fail("WithMetricsAddr: empty address")
			return
		}
		c.metricsAddr = addr
	}
}

// WithMetrics shares an externally owned Metrics with the system, so
// callers can aggregate counters across systems or read them after Close.
// By default every System owns a fresh Metrics, available via Metrics().
func WithMetrics(m *Metrics) Option {
	return func(c *config) {
		if m == nil {
			c.fail("WithMetrics: nil metrics")
			return
		}
		c.metrics = m
	}
}

// WithRecorder attaches a write-ahead recorder of protocol state: joins,
// raises, exit votes and outcomes are recorded before the corresponding
// message is sent, so a restarted node can replay them and re-join (or
// deterministically abort) its in-flight actions. Pair with OpenWAL for
// the durable on-disk log; see the Recorder type. By default nothing is
// recorded.
func WithRecorder(r Recorder) Option {
	return func(c *config) {
		if r == nil {
			c.fail("WithRecorder: nil recorder")
			return
		}
		c.recorder = r
	}
}

// WithLog attaches an event log capturing runtime and transport events
// (entries, raises, resolutions, exits, sends). By default no log is kept.
func WithLog(l *Log) Option {
	return func(c *config) {
		if l == nil {
			c.fail("WithLog: nil log")
			return
		}
		c.log = l
	}
}

// ClusterConfig wires a System into a multi-process cluster: the node hosts
// a subset of the logical thread address space behind one shared TCP
// listener, and routes messages for every other thread to whichever node
// currently hosts it. The caaction/cluster package builds these from its
// peer directory; embedders running their own placement layer can supply
// the callbacks directly.
type ClusterConfig struct {
	// ListenAddr is the host:port the node's shared data listener binds;
	// empty means loopback with an ephemeral port (see System.ClusterAddr
	// for the bound address).
	ListenAddr string
	// Local reports whether a logical thread address is placed on this
	// node. It must be consistent across the node's lifetime, pure, and
	// safe for concurrent use. Messages arriving for a local thread that
	// has not yet joined an action instance are retained (bounded) until
	// it does; messages for non-local threads route via Resolve.
	Local func(thread string) bool
	// Resolve maps a non-local thread address to the data host:port of the
	// node currently hosting it; ok=false means no live node hosts the
	// thread, surfacing to senders as a typed unreachable error. It is
	// consulted per send, so a peer that restarts on a new port heals as
	// soon as the directory learns the new address.
	Resolve func(thread string) (hostport string, ok bool)
}

// WithCluster runs the System as one node of a multi-process cluster: the
// tcp transport switches to node mode (one listener per process,
// node-qualified frames), thread addresses resolve node → endpoint through
// cfg, and StartTagged may start just the locally-placed roles of a shared
// action. Cluster nodes run on the real clock; WithCluster conflicts with
// WithVirtualTime, WithClock, WithNetwork and WithPeer.
func WithCluster(cfg ClusterConfig) Option {
	return func(c *config) {
		if cfg.Local == nil || cfg.Resolve == nil {
			c.fail("WithCluster: Local and Resolve callbacks are required")
			return
		}
		c.cluster = &cfg
		c.transportName = "tcp"
		c.env.ListenAddr = "" // the node listener replaces per-endpoint listeners
	}
}
