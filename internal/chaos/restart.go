package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"caaction/internal/core"
	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/transport"
	"caaction/internal/vclock"
	"caaction/internal/wal"
)

// ClassRestart: flat fault-free action in which one thread is killed
// mid-protocol and later reborn from its write-ahead log. The reborn
// thread replays the WAL and either re-joins the action (its crash fell
// inside the recovery window), recovers an already-recorded outcome, or
// abandons the action deterministically per §3.4. Safety invariants
// apply throughout; when the re-join completes cleanly the run must also
// be live — recovery restored the protocol, not just the state.
const ClassRestart = "restart"

// RestartPlan is the kill-and-restart axis of a scenario: Thread is
// killed (its endpoint closed, exactly like an Engine crash) at KillAt,
// and reborn at RebirthAt. Window is the recovery window: a replayed
// in-flight action older than Window at rebirth is abandoned
// (deterministic abort) instead of re-joined.
type RestartPlan struct {
	Thread    string
	KillAt    time.Duration
	RebirthAt time.Duration
	Window    time.Duration
}

// rebornKey names the reborn incarnation of a thread in Decisions. The
// suffix contains no '!', so protocol.InstanceOf still files the reborn
// thread's decisions under the same action instance as the survivors' —
// cross-incarnation agreement is checked by the ordinary invariant.
func rebornKey(thread string) string { return thread + "'" }

// GenerateRestart derives a restart scenario from its seed. It draws
// from its own generator stream — Generate's draw sequence is part of
// the existing golden-trace contract and must not change — and always
// produces a flat fault-free staggered scenario plus a restart plan:
// 3–5 threads (at least two survivors), a kill inside the first 40ms,
// rebirth 1–40ms later, and a recovery window that sometimes closes
// before the rebirth so all three recovery shapes (re-join, recovered
// outcome, deterministic abandonment) appear across seeds.
func GenerateRestart(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{
		Seed:       seed,
		Class:      ClassRestart,
		Threads:    3 + rng.Intn(3),
		Primitives: 2 + rng.Intn(3),
		Resolver:   Resolvers[rng.Intn(len(Resolvers))],
		Latency:    time.Duration(rng.Intn(4)) * time.Millisecond,
		Raises:     make(map[string]except.ID),
		RaiseAfter: make(map[string]time.Duration),
		Work:       make(map[string]time.Duration),
	}
	nodes := s.graph().Nodes()
	pick := func() except.ID { return nodes[rng.Intn(len(nodes))] }
	s.randomRaisers(rng, pick, true)
	for _, th := range s.ThreadIDs() {
		if _, ok := s.Raises[th]; !ok {
			s.Work[th] = time.Duration(rng.Intn(10)) * time.Millisecond
		}
	}
	ids := s.ThreadIDs()
	kill := time.Duration(1+rng.Intn(40)) * time.Millisecond
	s.Restart = &RestartPlan{
		Thread:    ids[rng.Intn(len(ids))],
		KillAt:    kill,
		RebirthAt: kill + time.Duration(1+rng.Intn(40))*time.Millisecond,
		Window:    time.Duration(5+rng.Intn(115)) * time.Millisecond,
	}
	return s
}

// restartTimers returns the scenario's kill and rebirth events as two
// participants that sleep until their virtual instant. They start after
// every action participant, so their goroutine ids — and with them the
// deterministic schedule — are fixed relative to the participants'.
func restartTimers(clk *vclock.Virtual, engine *Engine, rt *core.Runtime, mux *transport.Mux, s Scenario, outer *core.Spec, res *Result, mu *sync.Mutex, rec *wal.Memory) []func() {
	plan := *s.Restart
	return []func(){
		func() {
			clk.Sleep(plan.KillAt)
			engine.note(clk.Now(), "kill "+plan.Thread+" (restart plan)")
			engine.sim.CloseEndpoint(plan.Thread)
		},
		func() {
			clk.Sleep(plan.RebirthAt)
			rebirth(clk, engine, rt, mux, s, outer, res, mu, rec, plan)
		},
	}
}

// rebirth replays the victim's write-ahead state and applies the §3.4
// recovery decision rule: an action with a recorded outcome is already
// concluded (replay recovers the result); an in-flight action still
// inside the recovery window is re-joined by re-performing the role —
// the survivors re-announce the entry barrier and the resolution rounds
// continue with the reborn thread participating; anything older than the
// window is abandoned (MarkDead), the deterministic abort.
func rebirth(clk *vclock.Virtual, engine *Engine, rt *core.Runtime, mux *transport.Mux, s Scenario, outer *core.Spec, res *Result, mu *sync.Mutex, rec *wal.Memory, plan RestartPlan) {
	victim := plan.Thread
	now := clk.Now()
	st := rec.State()
	report := func(status string) {
		mu.Lock()
		res.Reborn[victim] = status
		mu.Unlock()
	}

	var open []wal.ActionKey
	for _, k := range st.InFlight() {
		if k.Thread == victim {
			open = append(open, k)
		}
	}
	if len(open) == 0 {
		// Every action the victim joined has a recorded outcome: the crash
		// fell after conclusion, and replay recovers the results directly.
		var keys []wal.ActionKey
		for k := range st.Actions {
			if k.Thread == victim && st.Actions[k].Outcome != "" {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Action < keys[j].Action })
		outs := make([]string, len(keys))
		for i, k := range keys {
			outs[i] = st.Actions[k].Outcome
		}
		if len(outs) == 0 {
			// Killed before the entry barrier recorded a join: nothing to
			// recover and nothing to abandon.
			engine.note(now, "rebirth "+victim+": no replayed state")
			report("norecord")
			return
		}
		engine.note(now, "rebirth "+victim+": recovered outcome "+strings.Join(outs, ","))
		report("recovered:" + strings.Join(outs, ","))
		return
	}

	k := open[0]
	as := st.Actions[k]
	age := now - time.Duration(as.JoinedWall)
	// The reborn thread is a role of the instance it was killed in.
	tag := protocol.InstanceOf(k.Action)
	ep, err := mux.Open(tag, victim)
	if err != nil {
		engine.note(now, "rebirth "+victim+": "+err.Error())
		report("error: " + err.Error())
		return
	}
	ct := rt.NewThreadOn(victim, ep, core.NewInstance(protocol.TagInstance(tag, "")))
	defer func() { _ = ct.Close() }()
	if age > plan.Window {
		// The resolution window has passed: abandon deterministically
		// rather than drag peers through a stale round (§3.4).
		ct.MarkDead(k.Action)
		engine.note(now, fmt.Sprintf("rebirth %s: %s outside window (age %v > %v), abandoned",
			victim, k.Action, age, plan.Window))
		report("lost")
		return
	}

	engine.note(now, fmt.Sprintf("rebirth %s: re-joining %s (age %v)", victim, k.Action, age))
	// Bound the re-join by the remainder of the window: if the survivors
	// have moved past anything the reborn thread can join, it unwinds with
	// ErrDeadline instead of stalling the run.
	ct.SetDeadline(now + plan.Window)
	key := rebornKey(victim)
	handlers := make(map[except.ID]core.Handler, outer.Graph.Len())
	for _, id := range outer.Graph.Nodes() {
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
	if exc, ok := s.Raises[victim]; ok {
		after, raised := s.RaiseAfter[victim], as.Raises > 0
		prog.Body = func(ctx *core.Context) error {
			if raised {
				// The WAL shows the first incarnation already raised: the
				// raise is durable state, so re-assert it immediately
				// instead of re-running the pre-raise computation.
				return ctx.Raise(exc, "recovered raise")
			}
			if err := ctx.Compute(after); err != nil {
				return err
			}
			return ctx.Raise(exc, "chaos raise")
		}
	} else {
		work := s.Work[victim]
		prog.Body = func(ctx *core.Context) error {
			return ctx.Compute(work)
		}
	}
	err = ct.Perform(outer, roleFor(victim), prog)
	status := "rejoin:" + classify(err)
	engine.note(clk.Now(), "rebirth "+victim+": "+status)
	report(status)
}

// checkRestart verifies the recovery invariants of a restart run on top
// of the always-on safety checks: the reborn thread reported a status, a
// recovered outcome matches what the first incarnation observed, and a
// clean re-join implies the run did not stall — recovery restored
// liveness, not just state.
func (r *Result) checkRestart() []string {
	plan := r.Scenario.Restart
	if plan == nil {
		return []string{"restart scenario without a restart plan"}
	}
	var v []string
	status := r.Reborn[plan.Thread]
	if status == "" {
		v = append(v, "reborn "+plan.Thread+" reported no status")
	}
	if out, ok := strings.CutPrefix(status, "recovered:"); ok {
		if got := r.Outcomes[plan.Thread]; got != out {
			v = append(v, fmt.Sprintf("recovered outcome %q, first incarnation observed %q", out, got))
		}
	}
	// A fully clean re-join — the reborn thread completed the action
	// normally — must have restored liveness: no stall, every survivor
	// completes cleanly too. (A ƒ-degraded or deadline-unwound re-join
	// makes no liveness claim: the survivors may legitimately have moved
	// past anything the reborn incarnation could join.)
	if status == "rejoin:ok" {
		if r.Stalled {
			v = append(v, "clean re-join but the run stalled")
		}
		for _, p := range r.Participants() {
			if p == plan.Thread {
				continue // the first incarnation legitimately unwinds "stopped"
			}
			if out := r.Outcomes[p]; out != "ok" && !strings.HasPrefix(out, "signalled:") {
				v = append(v, fmt.Sprintf("clean re-join but survivor %s unwound %q", p, out))
			}
		}
	}
	return v
}
