package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"caaction/internal/core"
	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/resolve"
	"caaction/internal/simenv"
	"caaction/internal/transport"
	"caaction/internal/wal"
)

// Scenario classes. Generate draws one per seed.
const (
	// ClassConcurrent: flat action, every raiser raises at t=0 (all raises
	// land in resolution round 0), fault-free. Run under all three
	// resolvers, the decisions must be identical.
	ClassConcurrent = "concurrent"
	// ClassStaggered: flat action, raisers raise at staggered instants so
	// late raises may start new rounds or be preempted by information,
	// fault-free.
	ClassStaggered = "staggered"
	// ClassNested: nested action chain; the raiser raises in the enclosing
	// action while the other threads sit Depth levels deep, forcing the
	// §3.3.2 abort cascade. Fault-free.
	ClassNested = "nested"
	// ClassFaulty: flat action under an active fault plan; only safety
	// invariants apply (agreement, cover), stalls are legitimate.
	ClassFaulty = "faulty"
)

// Resolvers lists the resolution protocols every sweep exercises.
var Resolvers = []string{"coordinated", "cr86", "r96"}

func protocolByName(name string) (resolve.Protocol, error) {
	switch name {
	case "coordinated":
		return resolve.Coordinated{}, nil
	case "cr86":
		return resolve.CR86{}, nil
	case "r96":
		return resolve.R96{}, nil
	default:
		return nil, fmt.Errorf("chaos: unknown resolver %q", name)
	}
}

// Scenario is one fully specified randomized experiment. Every field is
// derived from Seed by Generate, and Run is a pure function of the scenario,
// so Seed alone reproduces the run.
type Scenario struct {
	Seed       int64
	Class      string
	Threads    int
	Primitives int
	Depth      int // nested levels below the outer action (ClassNested)
	// Parallel is the concurrent-actions axis: when > 1, the scenario's
	// action runs as that many independent concurrent instances on ONE
	// runtime, multiplexed over shared per-thread transport endpoints
	// (transport.Mux). Participants are then keyed "p<k>!T<i>". 0 or 1 is
	// the single-instance regime: one instance, "p1", keyed by bare thread
	// ids.
	Parallel   int
	Resolver   string
	Latency    time.Duration
	Raises     map[string]except.ID     // thread -> exception raised
	RaiseAfter map[string]time.Duration // thread -> virtual raise instant
	Work       map[string]time.Duration // non-raisers' modelled computation
	Faults     Faults
	// Restart is the kill-and-restart axis (ClassRestart): one thread is
	// killed mid-protocol and reborn from its write-ahead log. nil for
	// every other class.
	Restart *RestartPlan
}

// ThreadIDs returns the scenario's participant identifiers T1..Tn, sorted in
// protocol order.
func (s Scenario) ThreadIDs() []string {
	out := make([]string, s.Threads)
	for i := range out {
		out[i] = fmt.Sprintf("T%d", i+1)
	}
	return out
}

// instanceTags returns the instance tags of the run, p1..p<Parallel> (one
// instance when Parallel <= 1).
func (s Scenario) instanceTags() []string {
	out := make([]string, max(s.Parallel, 1))
	for i := range out {
		out[i] = fmt.Sprintf("p%d", i+1)
	}
	return out
}

// participantKey names one (instance, thread) participant in Outcomes and
// Decisions: the bare thread id in single-instance runs, "tag!thread" when
// the concurrent-actions axis is active.
func (s Scenario) participantKey(tag, thread string) string {
	if s.Parallel <= 1 {
		return thread
	}
	return tag + "!" + thread
}

// Participant keys use the wire identifier's tag syntax, so the instance a
// key belongs to is recovered with protocol.InstanceOf.

// nestedRaiseAt is when the ClassNested raiser fires: far enough into the
// run that every descender has reached the innermost nesting level.
const nestedRaiseAt = time.Second

// Generate derives a scenario from its seed: 2–5 threads, a full exception
// graph over 2–4 primitives, a random raise set, and per-class timing and
// fault plans.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{
		Seed:       seed,
		Threads:    2 + rng.Intn(4),
		Primitives: 2 + rng.Intn(3),
		Resolver:   Resolvers[rng.Intn(len(Resolvers))],
		Latency:    time.Duration(rng.Intn(4)) * time.Millisecond,
		Raises:     make(map[string]except.ID),
		RaiseAfter: make(map[string]time.Duration),
		Work:       make(map[string]time.Duration),
	}
	nodes := s.graph().Nodes()
	pick := func() except.ID { return nodes[rng.Intn(len(nodes))] }

	switch c := rng.Intn(10); {
	case c < 2: // 20% nested abort-cascade scenarios
		s.Class = ClassNested
		s.Depth = 1 + rng.Intn(2)
		raiser := fmt.Sprintf("T%d", s.Threads)
		s.Raises[raiser] = pick()
		s.RaiseAfter[raiser] = nestedRaiseAt
	case c < 4: // 20% faulty scenarios
		s.Class = ClassFaulty
		s.Faults = Faults{
			Drop:      rng.Float64() * 0.15,
			Duplicate: rng.Float64() * 0.15,
			Reorder:   rng.Float64() * 0.15,
			Delay:     rng.Float64() * 0.15,
			MaxDelay:  10 * time.Millisecond,
		}
		if rng.Intn(2) == 0 && s.Threads > 2 {
			s.Faults.Crashes = 1
		}
		if rng.Intn(3) == 0 {
			s.Faults.Partition = true
		}
		s.randomRaisers(rng, pick, true)
	case c < 7: // 30% staggered fault-free scenarios
		s.Class = ClassStaggered
		s.randomRaisers(rng, pick, true)
		s.drawParallel(rng)
	default: // 30% concurrent fault-free scenarios
		s.Class = ClassConcurrent
		s.randomRaisers(rng, pick, false)
		s.drawParallel(rng)
	}
	for _, th := range s.ThreadIDs() {
		if _, ok := s.Raises[th]; !ok {
			s.Work[th] = time.Duration(rng.Intn(10)) * time.Millisecond
		}
	}
	return s
}

// drawParallel gives a quarter of the fault-free flat scenarios a
// concurrent-actions axis: 2–4 instances of the action in flight at once
// over shared transport endpoints.
func (s *Scenario) drawParallel(rng *rand.Rand) {
	if rng.Intn(4) == 0 {
		s.Parallel = 2 + rng.Intn(3)
	}
}

// randomRaisers picks 1..n raisers; staggered raisers get spread-out raise
// instants, concurrent ones all raise at t=0.
func (s *Scenario) randomRaisers(rng *rand.Rand, pick func() except.ID, staggered bool) {
	ids := s.ThreadIDs()
	k := 1 + rng.Intn(len(ids))
	for _, i := range rng.Perm(len(ids))[:k] {
		th := ids[i]
		s.Raises[th] = pick()
		if staggered {
			s.RaiseAfter[th] = time.Duration(rng.Intn(8)) * time.Millisecond
		}
	}
}

// graph rebuilds the scenario's exception graph (deterministic in Seed).
func (s Scenario) graph() *except.Graph {
	prims := make([]except.ID, s.Primitives)
	for i := range prims {
		prims[i] = except.ID(fmt.Sprintf("e%d", i+1))
	}
	g, err := except.GenerateFull("chaos", prims)
	if err != nil {
		panic(fmt.Sprintf("chaos: graph generation: %v", err))
	}
	return g
}

// Decision is one thread's record of one completed resolution round.
type Decision struct {
	Round    int
	Resolved except.ID
	Raised   []except.ID
}

func (d Decision) String() string {
	return fmt.Sprintf("r%d:%s%v", d.Round, d.Resolved, d.Raised)
}

// Result is the observable outcome of one scenario run.
type Result struct {
	Scenario Scenario
	Resolver string
	// Outcomes classifies each participant's Perform return: "ok",
	// "signalled:<exc>", "stopped" (crash/stall unwind) or "error:<msg>".
	// Keys are thread ids, or "p<k>!T<i>" when Parallel > 1 (see
	// Participants).
	Outcomes map[string]string
	// Decisions holds each participant's resolution history in round order.
	Decisions map[string][]Decision
	Stalled   bool
	Rounds    int64 // metrics action.rounds (participant·rounds)
	Aborted   int64 // metrics action.aborted (aborted frames)
	Msg       map[string]int64
	Trace     string
	// Reborn reports the recovery status of each restarted thread
	// (ClassRestart only, nil otherwise): "rejoin:<outcome>",
	// "recovered:<outcome>", "lost" or "norecord". The reborn
	// incarnation's decisions appear in Decisions under rebornKey.
	Reborn map[string]string
}

// Participants lists the run's participant keys in deterministic order: the
// thread ids, crossed with the instance tags when the concurrent-actions
// axis is active.
func (r *Result) Participants() []string {
	var out []string
	for _, tag := range r.Scenario.instanceTags() {
		for _, th := range r.Scenario.ThreadIDs() {
			out = append(out, r.Scenario.participantKey(tag, th))
		}
	}
	return out
}

// Run executes the scenario under its own resolver.
func Run(s Scenario) (*Result, error) { return RunWith(s, s.Resolver) }

// RunWith executes the scenario under the named resolver. The run is fully
// deterministic: calling RunWith twice with equal arguments yields identical
// results, including the event trace.
func RunWith(s Scenario, resolverName string) (*Result, error) {
	proto, err := protocolByName(resolverName)
	if err != nil {
		return nil, err
	}
	threads := s.ThreadIDs()
	env := simenv.New(simenv.Sequential(), simenv.Latency(s.Latency))
	clk := env.Clock

	var sigTO time.Duration
	if s.Faults.Active() || s.Restart != nil {
		// Lost exit votes degrade to ƒ instead of stalling the exit.
		sigTO = 500 * time.Millisecond
	}
	// Restart scenarios record protocol state into an in-memory
	// write-ahead log, timestamped by the virtual clock; the reborn
	// thread replays it to decide what to re-join.
	var rec *wal.Memory
	cfg := core.Config{
		Clock:         clk,
		Protocol:      proto,
		Metrics:       env.Metrics,
		SignalTimeout: sigTO,
	}
	if s.Restart != nil {
		rec = wal.NewMemory(clk)
		cfg.Recorder = rec
	}
	rt, err := core.New(cfg)
	if err != nil {
		return nil, err
	}

	g := s.graph()
	outer := &core.Spec{
		Name:   "chaos",
		Roles:  rolesFor(threads),
		Graph:  g,
		Timing: core.Timing{Resolution: time.Millisecond},
	}
	var levels []*core.Spec
	if s.Depth > 0 {
		descenders := threads[:len(threads)-1]
		for i := 0; i < s.Depth; i++ {
			levels = append(levels, &core.Spec{
				Name:   fmt.Sprintf("nest%d", i+1),
				Roles:  rolesFor(descenders),
				Graph:  g,
				Timing: core.Timing{Abortion: time.Millisecond},
			})
		}
	}

	res := &Result{
		Scenario:  s,
		Resolver:  resolverName,
		Outcomes:  make(map[string]string, len(threads)),
		Decisions: make(map[string][]Decision, len(threads)),
		Msg:       make(map[string]int64),
	}
	var mu sync.Mutex
	program := func(tag string) func(core.Role) core.RoleProgram {
		return func(r core.Role) core.RoleProgram {
			th, key := r.Thread, s.participantKey(tag, r.Thread)
			handlers := make(map[except.ID]core.Handler, g.Len())
			for _, id := range g.Nodes() {
				handlers[id] = func(ctx *core.Context, resolved except.ID, raised []except.Raised) error {
					mu.Lock()
					res.Decisions[key] = append(res.Decisions[key], Decision{
						Round:    ctx.Round() - 1,
						Resolved: resolved,
						Raised:   except.IDsOf(raised),
					})
					mu.Unlock()
					return nil
				}
			}
			prog := core.RoleProgram{Handlers: handlers}
			switch {
			case s.Raises[th] != "":
				exc, after := s.Raises[th], s.RaiseAfter[th]
				prog.Body = func(ctx *core.Context) error {
					if err := ctx.Compute(after); err != nil {
						return err
					}
					return ctx.Raise(exc, "chaos raise")
				}
			case s.Depth > 0:
				prog.Body = func(ctx *core.Context) error {
					return descend(ctx, r.Name, levels, 0)
				}
			default:
				work := s.Work[th]
				prog.Body = func(ctx *core.Context) error {
					return ctx.Compute(work)
				}
			}
			return prog
		}
	}

	// The fault engine arms its crash timers and the restart plan its kill
	// and rebirth timers, so both are set up inside the start. Every
	// instance's threads get virtual endpoints demultiplexed from shared
	// per-thread endpoints, and each participant closes its thread when
	// its Perform returns, so the shared endpoints (and their pumps) are
	// released once the last instance completes. The order of setup — the
	// engine, all threads of instance 1, then instance 2, …, then the
	// participants in the same order, then the restart timers — fixes
	// goroutine ids and is part of the deterministic contract.
	var engine *Engine
	results := make(map[string]map[string]error)
	err = env.Run(func() ([]func(), error) {
		engine = NewEngine(clk, env.Net, s.Seed^0x5DEECE66D, s.Faults, threads)
		mux := transport.NewMux(clk, env.Net)
		var participants []func()
		for _, tag := range s.instanceTags() {
			prog := program(tag)
			ps, outcomes, err := rt.Participants(mux, tag, outer, func(th *core.Thread, r core.Role) error {
				return th.Perform(outer, r.Name, prog(r))
			})
			if err != nil {
				return nil, err
			}
			results[tag] = outcomes
			participants = append(participants, ps...)
		}
		if s.Restart != nil {
			res.Reborn = make(map[string]string, 1)
			participants = append(participants, restartTimers(clk, engine, rt, mux, s, outer, res, &mu, rec)...)
		}
		return participants, nil
	})
	if err != nil {
		return nil, err
	}
	for tag, outcomes := range results {
		for th, err := range outcomes {
			res.Outcomes[s.participantKey(tag, th)] = classify(err)
		}
	}

	res.Stalled = engine.Stalled()
	res.Trace = engine.Trace()
	snap := env.Metrics.Snapshot()
	res.Rounds = snap["action.rounds"]
	res.Aborted = snap["action.aborted"]
	for k, v := range snap {
		if strings.HasPrefix(k, "msg.") {
			res.Msg[strings.TrimPrefix(k, "msg.")] = v
		}
	}
	return res, nil
}

// descend enters the chain of nested actions down to the innermost level,
// where the thread computes until the enclosing raise aborts the chain.
func descend(ctx *core.Context, role string, levels []*core.Spec, level int) error {
	if level == len(levels) {
		return ctx.Compute(time.Hour)
	}
	return ctx.Enter(levels[level], role, core.RoleProgram{
		Body: func(c2 *core.Context) error {
			return descend(c2, role, levels, level+1)
		},
	})
}

func rolesFor(threads []string) []core.Role {
	out := make([]core.Role, len(threads))
	for i, th := range threads {
		out[i] = core.Role{Name: "r" + th, Thread: th}
	}
	return out
}

func roleFor(thread string) string { return "r" + thread }

func classify(err error) string {
	if err == nil {
		return "ok"
	}
	var se *core.SignalledError
	if errors.As(err, &se) {
		return "signalled:" + string(se.Exc)
	}
	if errors.Is(err, core.ErrThreadStopped) {
		return "stopped"
	}
	if errors.Is(err, core.ErrDeadline) {
		// Only reborn threads run under a deadline (the recovery window):
		// the survivors moved on, and the re-join unwound deterministically.
		return "deadline"
	}
	return "error: " + err.Error()
}

// Fingerprint renders everything deterministic about the run — trace,
// per-thread decisions and outcomes — for replay comparison.
func (r *Result) Fingerprint() string {
	var b strings.Builder
	b.WriteString(r.Trace)
	b.WriteString("\n--\n")
	for _, p := range r.Participants() {
		fmt.Fprintf(&b, "%s %s %v\n", p, r.Outcomes[p], r.Decisions[p])
	}
	if len(r.Reborn) > 0 {
		// Restart runs append the reborn incarnations; other classes leave
		// Reborn nil, so their fingerprints are byte-identical to earlier
		// revisions.
		threads := make([]string, 0, len(r.Reborn))
		for th := range r.Reborn {
			threads = append(threads, th)
		}
		sort.Strings(threads)
		for _, th := range threads {
			fmt.Fprintf(&b, "reborn %s %s %v\n", th, r.Reborn[th], r.Decisions[rebornKey(th)])
		}
	}
	fmt.Fprintf(&b, "stalled=%v rounds=%d aborted=%d\n", r.Stalled, r.Rounds, r.Aborted)
	return b.String()
}

// Check verifies the paper's invariants against the run and returns the
// violations found (nil means the run is clean). Safety invariants —
// per-round agreement and cover-correct resolution — apply to every class;
// liveness, abort-cascade and §3.3.3 message-count invariants apply only to
// fault-free classes, where the protocol's delivery assumptions hold.
func (r *Result) Check() []string {
	var v []string
	v = append(v, r.checkAgreement()...)
	v = append(v, r.checkResolution()...)
	switch r.Scenario.Class {
	case ClassConcurrent, ClassStaggered:
		v = append(v, r.checkLive()...)
		v = append(v, r.checkMessageBounds()...)
	case ClassNested:
		v = append(v, r.checkLive()...)
		v = append(v, r.checkAbortCascade()...)
	case ClassRestart:
		v = append(v, r.checkRestart()...)
	}
	return v
}

// checkAgreement: within every action instance, all participants that
// decided a given round report the same resolved exception over the same
// raised set. (Different concurrent instances are independent actions and
// may legitimately disagree.)
func (r *Result) checkAgreement() []string {
	var v []string
	type slot struct {
		instance string
		round    int
	}
	byRound := make(map[slot]map[string]string) // slot -> rendering -> participants
	for p, ds := range r.Decisions {
		inst := protocol.InstanceOf(p)
		for _, d := range ds {
			sl := slot{inst, d.Round}
			if byRound[sl] == nil {
				byRound[sl] = make(map[string]string)
			}
			key := fmt.Sprintf("%s%v", d.Resolved, d.Raised)
			byRound[sl][key] += p + " "
		}
	}
	slots := make([]slot, 0, len(byRound))
	for sl := range byRound {
		slots = append(slots, sl)
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].instance != slots[j].instance {
			return slots[i].instance < slots[j].instance
		}
		return slots[i].round < slots[j].round
	})
	for _, sl := range slots {
		if len(byRound[sl]) > 1 {
			v = append(v, fmt.Sprintf("instance %q round %d disagreement: %v", sl.instance, sl.round, byRound[sl]))
		}
	}
	return v
}

// checkResolution: every decision's resolved exception is exactly what the
// graph's cover-set rule prescribes for its raised set. The graph is rebuilt
// from the scenario (it is deterministic in the seed), so Check works on any
// Result whose Scenario is populated — including one rebuilt from a report.
func (r *Result) checkResolution() []string {
	var v []string
	graph := r.Scenario.graph()
	for th, ds := range r.Decisions {
		for _, d := range ds {
			if len(d.Raised) == 0 {
				v = append(v, fmt.Sprintf("%s round %d: empty raised set", th, d.Round))
				continue
			}
			want, err := graph.Resolve(d.Raised...)
			if err != nil {
				v = append(v, fmt.Sprintf("%s round %d: %v", th, d.Round, err))
				continue
			}
			if d.Resolved != want {
				v = append(v, fmt.Sprintf("%s round %d: resolved %s, cover-set rule says %s for %v",
					th, d.Round, d.Resolved, want, d.Raised))
			}
			for _, raised := range d.Raised {
				if !graph.Covers(d.Resolved, raised) {
					v = append(v, fmt.Sprintf("%s round %d: resolved %s does not cover %s",
						th, d.Round, d.Resolved, raised))
				}
			}
		}
	}
	return v
}

// checkLive: fault-free runs must not stall, every participant completes
// its action cleanly, and every participant decided at least one round.
func (r *Result) checkLive() []string {
	var v []string
	if r.Stalled {
		v = append(v, "fault-free run stalled")
	}
	for _, p := range r.Participants() {
		if out := r.Outcomes[p]; out != "ok" {
			v = append(v, fmt.Sprintf("%s outcome %q, want ok", p, out))
		}
		if len(r.Decisions[p]) == 0 {
			v = append(v, p+" never decided a round")
		}
	}
	if n := int64(r.Scenario.Threads); r.Rounds%n != 0 {
		v = append(v, fmt.Sprintf("rounds counter %d not divisible by %d threads", r.Rounds, n))
	}
	return v
}

// checkAbortCascade: the enclosing raise aborts exactly Depth nested frames
// in each of the Threads-1 descender threads — one frame per nesting level,
// never more, never fewer.
func (r *Result) checkAbortCascade() []string {
	want := int64(r.Scenario.Depth) * int64(r.Scenario.Threads-1)
	if r.Aborted != want {
		return []string{fmt.Sprintf("abort cascade aborted %d frames, want depth %d × %d descenders = %d",
			r.Aborted, r.Scenario.Depth, r.Scenario.Threads-1, want)}
	}
	return nil
}

// checkMessageBounds verifies the §3.3.3 per-round message complexities
// against measured per-kind counts, with N threads and R the number of
// completed rounds summed over all P concurrent instances (so the bounds
// hold for any distribution of rounds across instances):
//
//	coordinated: Exception+Suspended = R·N(N−1), Commit = R·(N−1)
//	r96:         Exception+Suspended = Propose = Ack = R·N(N−1)
//	cr86:        Exception+Suspended = Propose = R·N(N−1),
//	             Relay ≤ R·N(N−1)(N−2)
//
// plus Enter = P·N(N−1) for the flat actions and ToBeSignalled ≤
// (R+P)·N(N−1) exit votes ((Rp+1)·N(N−1) per instance).
func (r *Result) checkMessageBounds() []string {
	var v []string
	n := int64(r.Scenario.Threads)
	instances := int64(1)
	if r.Scenario.Parallel > 1 {
		instances = int64(r.Scenario.Parallel)
	}
	rounds := r.Rounds / n
	nn := n * (n - 1)
	status := r.Msg["Exception"] + r.Msg["Suspended"]
	if status != rounds*nn {
		v = append(v, fmt.Sprintf("status messages %d, want R·N(N−1) = %d·%d", status, rounds, nn))
	}
	switch r.Resolver {
	case "coordinated":
		if r.Msg["Commit"] != rounds*(n-1) {
			v = append(v, fmt.Sprintf("Commit %d, want R·(N−1) = %d", r.Msg["Commit"], rounds*(n-1)))
		}
		if r.Msg["Relay"]+r.Msg["Propose"]+r.Msg["Ack"] != 0 {
			v = append(v, "coordinated run used baseline-protocol messages")
		}
	case "r96":
		if r.Msg["Propose"] != rounds*nn || r.Msg["Ack"] != rounds*nn {
			v = append(v, fmt.Sprintf("r96 Propose/Ack %d/%d, want R·N(N−1) = %d",
				r.Msg["Propose"], r.Msg["Ack"], rounds*nn))
		}
	case "cr86":
		if r.Msg["Propose"] != rounds*nn {
			v = append(v, fmt.Sprintf("cr86 Propose %d, want R·N(N−1) = %d", r.Msg["Propose"], rounds*nn))
		}
		if max := rounds * n * (n - 1) * (n - 2); r.Msg["Relay"] > max {
			v = append(v, fmt.Sprintf("cr86 Relay %d exceeds R·N(N−1)(N−2) = %d", r.Msg["Relay"], max))
		}
	}
	if r.Msg["Enter"] != instances*nn {
		v = append(v, fmt.Sprintf("Enter %d, want P·N(N−1) = %d", r.Msg["Enter"], instances*nn))
	}
	if votes, max := r.Msg["ToBeSignalled"], (rounds+instances)*nn; votes > max {
		v = append(v, fmt.Sprintf("ToBeSignalled %d exceeds (R+P)·N(N−1) = %d", votes, max))
	}
	return v
}
