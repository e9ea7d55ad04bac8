package caaction

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"caaction/internal/resolve"
	"caaction/internal/transport"
)

// ResolutionProtocol is a pluggable distributed algorithm for resolving
// concurrently raised exceptions. The three protocols compared by the paper
// ship built in; custom protocols may be added with RegisterResolver.
type ResolutionProtocol = resolve.Protocol

// The paper's resolution protocols, ready to pass to
// WithResolutionProtocol or to compare in experiments.
var (
	// Coordinated is the paper's own algorithm (§3.3.2): (N+1)(N−1)
	// messages per resolution with exactly one resolution-procedure run.
	Coordinated ResolutionProtocol = resolve.Coordinated{}
	// CR86 models Campbell & Randell's 1986 scheme: O(N³) messages with
	// per-relay resolutions.
	CR86 ResolutionProtocol = resolve.CR86{}
	// R96 models Romanovsky et al.'s 1996 algorithm: 3N(N−1) messages with
	// N resolutions.
	R96 ResolutionProtocol = resolve.R96{}
)

// Registry lookup errors.
var (
	ErrUnknownResolver  = errors.New("caaction: unknown resolution protocol")
	ErrUnknownTransport = errors.New("caaction: unknown transport")
)

type registry[T any] struct {
	mu sync.RWMutex
	m  map[string]T
}

func (r *registry[T]) set(name string, v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]T)
	}
	r.m[name] = v
}

func (r *registry[T]) get(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.m[name]
	return v, ok
}

func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

var resolverRegistry = func() *registry[ResolutionProtocol] {
	r := &registry[ResolutionProtocol]{}
	for _, p := range []ResolutionProtocol{Coordinated, CR86, R96} {
		r.set(p.Name(), p)
	}
	return r
}()

// RegisterResolver makes a resolution protocol selectable by name through
// WithResolver (and thus from command-line flags). The built-in names are
// "coordinated", "cr86" and "r96"; registering an existing name replaces it.
func RegisterResolver(name string, p ResolutionProtocol) {
	resolverRegistry.set(name, p)
}

// Resolver returns the registered resolution protocol with the given name.
func Resolver(name string) (ResolutionProtocol, error) {
	p, ok := resolverRegistry.get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownResolver, name, Resolvers())
	}
	return p, nil
}

// Resolvers lists the registered resolution-protocol names, sorted.
func Resolvers() []string { return resolverRegistry.names() }

// Network carries protocol messages between threads; Endpoint is one
// thread's attachment to it. Most callers never touch these directly — New
// assembles the network from options — but custom transports implement them.
type (
	Network  = transport.Network
	Endpoint = transport.Endpoint
)

// TransportEnv is what New hands a TransportFactory when assembling a
// System: the system clock plus the transport-related option values.
type TransportEnv struct {
	// Clock is the system's clock (virtual or real).
	Clock Clock
	// Latency is the modelled one-way delay (sim transport).
	Latency time.Duration
	// Jitter, when positive, spreads latency uniformly over
	// [Latency, Latency+Jitter] using Seed (sim transport).
	Jitter time.Duration
	// Seed seeds the jitter source for reproducibility.
	Seed int64
	// Metrics receives per-kind message counters; never nil.
	Metrics *Metrics
	// Log, when non-nil, records send/deliver events.
	Log *Log
	// ListenAddr is the host:port networked transports listen on
	// (WithTCPTransport's argument); empty means loopback with an
	// ephemeral port.
	ListenAddr string
	// Peers maps logical thread addresses served by other processes to
	// their host:port, from WithPeer.
	Peers map[string]string
	// PeerWindow overrides the credit window, in messages, that the tcp
	// transport advertises on every connection it accepts (0 keeps the
	// default), from WithPeerWindow.
	PeerWindow int
}

// TransportFactory builds a Network for one System.
type TransportFactory func(env TransportEnv) (Network, error)

var transportRegistry = func() *registry[TransportFactory] {
	r := &registry[TransportFactory]{}
	r.set("sim", simTransport)
	r.set("tcp", tcpTransport)
	return r
}()

// RegisterTransport makes a transport selectable by name through
// WithTransport (and thus from command-line flags). The built-in names are
// "sim" and "tcp"; registering an existing name replaces it.
func RegisterTransport(name string, f TransportFactory) {
	transportRegistry.set(name, f)
}

// TransportByName returns the registered transport factory with the given
// name.
func TransportByName(name string) (TransportFactory, error) {
	f, ok := transportRegistry.get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownTransport, name, Transports())
	}
	return f, nil
}

// Transports lists the registered transport names, sorted.
func Transports() []string { return transportRegistry.names() }

// simTransport is the built-in "sim" transport: an in-process network with a
// configurable latency model, driven by the system clock.
func simTransport(env TransportEnv) (Network, error) {
	// A nil latency model means zero latency AND tells the sim that the
	// FIFO clamp can never bite, unlocking its lock-free send fast path on
	// real-time fault-free systems (the load-harness configuration).
	var latency transport.LatencyFunc
	switch {
	case env.Jitter > 0:
		latency = transport.JitterLatency(env.Latency, env.Jitter, env.Seed)
	case env.Latency > 0:
		latency = transport.FixedLatency(env.Latency)
	}
	return transport.NewSim(transport.SimConfig{
		Clock:   env.Clock,
		Latency: latency,
		Metrics: env.Metrics,
		Log:     env.Log,
	}), nil
}

// tcpTransport is the built-in "tcp" transport: batched binary-codec
// messages over TCP for genuinely distributed deployments.
func tcpTransport(env TransportEnv) (Network, error) {
	t := transport.NewTCP(env.Clock)
	t.SetMetrics(env.Metrics)
	if env.PeerWindow > 0 {
		t.SetPeerWindow(env.PeerWindow)
	}
	if env.ListenAddr != "" {
		t.SetListenAddr(env.ListenAddr)
	}
	for addr, hostport := range env.Peers {
		t.SetPeer(addr, hostport)
	}
	return t, nil
}
