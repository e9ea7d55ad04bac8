// Package simenv builds the simulated system that the paper's evaluation,
// the chaos engine and the virtual-clock tests run on — a virtual clock, the
// in-process network and its message counters — and owns the one way such
// a system is started (Start).
package simenv

import (
	"time"

	"caaction/internal/trace"
	"caaction/internal/transport"
	"caaction/internal/vclock"
)

// Env is one simulated system: its clock, its network and the network's
// message counters ("msg.<Kind>", "msg.total").
type Env struct {
	Clock   *vclock.Virtual
	Net     *transport.Sim
	Metrics *trace.Metrics
}

// Option tunes New.
type Option func(*config)

type config struct {
	latency  transport.LatencyFunc
	newClock func() *vclock.Virtual
}

// Latency sets a fixed one-way message latency. Without a latency option
// messages arrive at the instant they are sent.
func Latency(d time.Duration) Option { return LatencyFunc(transport.FixedLatency(d)) }

// LatencyFunc sets a latency model that varies per message or per pair,
// such as transport.JitterLatency.
func LatencyFunc(f transport.LatencyFunc) Option {
	return func(c *config) { c.latency = f }
}

// Sequential selects run-to-block scheduling (vclock.NewVirtualSequential):
// one participant runs at a time, so every send and random draw happens in
// the same total order on every run.
func Sequential() Option {
	return func(c *config) { c.newClock = vclock.NewVirtualSequential }
}

// New builds a simulated system at virtual time zero.
func New(opts ...Option) *Env {
	c := config{newClock: vclock.NewVirtual}
	for _, o := range opts {
		o(&c)
	}
	clk := c.newClock()
	metrics := &trace.Metrics{}
	return &Env{
		Clock:   clk,
		Net:     transport.NewSim(transport.SimConfig{Clock: clk, Latency: c.latency, Metrics: metrics}),
		Metrics: metrics,
	}
}

// Run starts the system with Start and returns once it has finished.
func (e *Env) Run(setup func() ([]func(), error)) error { return Start(e.Clock, setup) }

// Go runs participants that need no endpoint bound, or whose endpoints are
// bound already, and returns once the system has finished.
func (e *Env) Go(participants ...func()) {
	_ = e.Run(func() ([]func(), error) { return participants, nil })
}

// Peers binds one endpoint per name, then runs peer for every name, each
// on its own participant, and returns once the system has finished. i is
// the name's index.
func (e *Env) Peers(names []string, peer func(i int, ep transport.Endpoint)) error {
	return e.Run(func() ([]func(), error) {
		participants := make([]func(), len(names))
		for i, name := range names {
			ep, err := e.Net.Endpoint(name)
			if err != nil {
				return nil, err
			}
			participants[i] = func() { peer(i, ep) }
		}
		return participants, nil
	})
}

// Start is the one way a simulation starts. It calls setup, which binds
// every endpoint (creates threads, opens mux instances, arms fault timers)
// and returns the participants, starts each participant in order on its own
// goroutine tracked by clk, and waits for clk. On a virtual clock this all
// happens inside Virtual.Run: until the last participant has started, the
// clock grants no turn, advances no time and declares no deadlock, so no
// participant can block while its siblings do not exist yet, and goroutine
// ids — the wake priority under sequential scheduling — follow setup's
// order. If setup fails, no participant starts and Start returns its error.
func Start(clk vclock.Clock, setup func() ([]func(), error)) error {
	var err error
	start := func() {
		var participants []func()
		if participants, err = setup(); err != nil {
			return
		}
		for _, p := range participants {
			clk.Go(p)
		}
	}
	if v, ok := clk.(*vclock.Virtual); ok {
		v.Run(start)
	} else {
		start()
		clk.Wait()
	}
	return err
}
