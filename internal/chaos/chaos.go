// Package chaos is a seeded, deterministic fault-injection engine and
// scenario generator for the CA-action runtime, layered over the simulated
// network (internal/transport.Sim) and the sequential virtual clock
// (internal/vclock.NewVirtualSequential).
//
// The engine perturbs every message a simulation sends — drop, duplicate,
// reorder, extra delay, partition-drop — and crash-stops chosen threads at
// chosen virtual instants. Every decision is drawn from a single
// rand.Source, and because the sequential clock serializes execution into
// one deterministic total order, the same seed replays a byte-identical
// event trace: same perturbations, same deliveries, same decisions, same
// outcomes. A failing scenario is therefore fully reproducible from its
// printed seed alone — the seed-replay contract the sweep harness and
// cmd/cachaos rely on.
//
// On top of the engine, Generate derives randomized scenarios (role count,
// exception graphs from except.GenerateFull, raise sets, nesting depth,
// fault plans) from a scenario seed, Run executes one scenario under any of
// the three resolution protocols, and (*Result).Check verifies the paper's
// invariants: all surviving participants agree on the resolved exception of
// every round, the resolved exception covers the raised set exactly as
// Graph.Resolve prescribes, abort cascades abort exactly one frame per
// nesting level, and per-round message counts respect the §3.3.3 bounds.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"caaction/internal/protocol"
	"caaction/internal/transport"
	"caaction/internal/vclock"
)

// Faults is a scenario's fault plan: per-message perturbation probabilities
// plus structural faults. The zero value is fault-free.
type Faults struct {
	// Drop, Duplicate, Reorder, Delay are independent per-message
	// probabilities in [0, 1], tested in that order (first hit wins).
	Drop, Duplicate, Reorder, Delay float64
	// MaxDelay bounds the extra delay drawn for Reorder and Delay hits.
	MaxDelay time.Duration
	// Crashes is the number of threads crash-stopped (endpoint closed) at
	// engine-chosen virtual instants.
	Crashes int
	// Partition, when true, splits the threads into two groups that cannot
	// exchange messages during an engine-chosen window.
	Partition bool
}

// Active reports whether the plan injects any fault at all.
func (f Faults) Active() bool {
	return f.Drop > 0 || f.Duplicate > 0 || f.Reorder > 0 || f.Delay > 0 ||
		f.Crashes > 0 || f.Partition
}

// Engine drives one simulation's fault injection. Construct with NewEngine
// before starting any simulation goroutine; the engine installs itself as
// the network's perturbation hook and the clock's deadlock handler.
type Engine struct {
	clk     *vclock.Virtual
	sim     *transport.Sim
	rng     *rand.Rand
	faults  Faults
	threads []string

	partStart, partEnd time.Duration
	partSide           map[string]bool
	crashAt            []crashPoint

	mu      sync.Mutex
	events  []string
	frozen  bool
	stalled bool
}

type crashPoint struct {
	thread string
	at     time.Duration
}

// crashWindow bounds the virtual instants at which crash-stops fire.
const crashWindow = 20 * time.Millisecond

// NewEngine installs a fault engine on the given clock and network. All
// randomness — per-message rolls, crash instants, the partition window and
// sides — derives from seed. threads is the full participant list; its
// order is part of the deterministic contract, so pass it sorted.
func NewEngine(clk *vclock.Virtual, sim *transport.Sim, seed int64, faults Faults, threads []string) *Engine {
	e := &Engine{
		clk:     clk,
		sim:     sim,
		rng:     rand.New(rand.NewSource(seed)),
		faults:  faults,
		threads: append([]string(nil), threads...),
	}
	if faults.Partition && len(threads) >= 2 {
		e.partStart = time.Duration(e.rng.Int63n(int64(10 * time.Millisecond)))
		e.partEnd = e.partStart + time.Duration(e.rng.Int63n(int64(20*time.Millisecond))) + time.Millisecond
		e.partSide = make(map[string]bool, len(threads))
		// Guarantee both sides are non-empty.
		e.partSide[threads[0]] = false
		e.partSide[threads[1]] = true
		for _, th := range threads[2:] {
			e.partSide[th] = e.rng.Intn(2) == 0
		}
		e.note(0, fmt.Sprintf("plan partition [%v,%v) sides=%v", e.partStart, e.partEnd, e.sides()))
	}
	if faults.Crashes > 0 {
		perm := e.rng.Perm(len(threads))
		n := faults.Crashes
		if n > len(threads)-1 {
			n = len(threads) - 1 // always leave one survivor
		}
		for i := 0; i < n; i++ {
			cp := crashPoint{
				thread: threads[perm[i]],
				at:     time.Duration(e.rng.Int63n(int64(crashWindow))) + time.Millisecond,
			}
			e.crashAt = append(e.crashAt, cp)
			e.note(0, fmt.Sprintf("plan crash %s at %v", cp.thread, cp.at))
		}
		// Registration order fixes the crash goroutines' scheduling
		// priority, so it must be deterministic.
		for _, cp := range e.crashAt {
			cp := cp
			clk.AfterFunc(cp.at, func() {
				e.note(e.clk.Now(), "crash "+cp.thread)
				e.sim.CloseEndpoint(cp.thread)
			})
		}
	}
	sim.SetPerturb(e.perturb)
	clk.SetDeadlockHandler(func(info string) {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.stalled = true
		if !e.frozen {
			e.events = append(e.events, "stall: "+info)
			// Post-stall unwinding is concurrent and therefore not part of
			// the deterministic trace.
			e.frozen = true
		}
	})
	return e
}

func (e *Engine) sides() string {
	var a, b []string
	for _, th := range e.threads {
		if e.partSide[th] {
			b = append(b, th)
		} else {
			a = append(a, th)
		}
	}
	return fmt.Sprintf("%v|%v", a, b)
}

// perturb is invoked by the network under its lock, in send order.
func (e *Engine) perturb(from, to string, msg protocol.Message) transport.Verdict {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clk.Now()
	var v transport.Verdict
	note := "deliver"
	switch {
	case e.partitioned(now, from, to):
		v.Fault = transport.Drop
		note = "partition"
	case e.roll(e.faults.Drop):
		v.Fault = transport.Drop
		note = "drop"
	case e.roll(e.faults.Duplicate):
		v.Copies = 1
		note = "dup"
	case e.roll(e.faults.Reorder):
		v.Reorder = true
		v.Delay = e.extraDelay()
		note = fmt.Sprintf("reorder+%v", v.Delay)
	case e.roll(e.faults.Delay):
		v.Delay = e.extraDelay()
		note = fmt.Sprintf("delay+%v", v.Delay)
	}
	if !e.frozen {
		e.events = append(e.events, fmt.Sprintf("%8v %s->%s %s %s", now, from, to, msg.Kind, note))
	}
	return v
}

// roll consumes one random draw when p > 0, so fault-free runs consume no
// randomness and scenario traces stay comparable across fault plans.
func (e *Engine) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return e.rng.Float64() < p
}

func (e *Engine) extraDelay() time.Duration {
	if e.faults.MaxDelay <= 0 {
		return 0
	}
	return time.Duration(e.rng.Int63n(int64(e.faults.MaxDelay)))
}

func (e *Engine) partitioned(now time.Duration, from, to string) bool {
	if e.partSide == nil || now < e.partStart || now >= e.partEnd {
		return false
	}
	return e.partSide[from] != e.partSide[to]
}

func (e *Engine) note(at time.Duration, s string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.frozen {
		e.events = append(e.events, fmt.Sprintf("%8v %s", at, s))
	}
}

// Stalled reports whether the simulation deadlocked (the expected outcome
// when faults starve a protocol that assumes reliable delivery).
func (e *Engine) Stalled() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stalled
}

// Trace renders the deterministic event trace: one line per planned fault,
// per message verdict, per crash, plus a final stall marker if the run
// deadlocked. Identical across runs of the same seeded scenario.
func (e *Engine) Trace() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return strings.Join(e.events, "\n")
}
