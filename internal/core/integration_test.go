package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"caaction/internal/core"
	"caaction/internal/except"
	"caaction/internal/resolve"
	"caaction/internal/simenv"
	"caaction/internal/transport"
	"caaction/internal/vclock"
)

// TestActionOverTCP runs a complete CA action — concurrent raises, resolution,
// handlers, synchronous exit — across the gob-over-TCP transport with the
// real clock: the genuinely distributed deployment mode.
func TestActionOverTCP(t *testing.T) {
	clk := vclock.NewReal()
	net := transport.NewTCP(clk)
	defer func() { _ = net.Close() }()
	rt, err := core.New(core.Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	g, err := except.GenerateFull("tcp", []except.ID{"e1", "e2", "e3"})
	if err != nil {
		t.Fatal(err)
	}
	spec := &core.Spec{
		Name: "tcpaction",
		Roles: []core.Role{
			{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}, {Name: "c", Thread: "T3"},
		},
		Graph: g,
	}
	// Over real TCP the arrival order across senders is not deterministic: a
	// raiser can be informed of the other's exception during the entry
	// barrier and legitimately never raise its own (it suspends instead), so
	// the resolved exception is any cover of the raises that did happen.
	// Handle every node and assert agreement rather than one interleaving.
	type decision struct {
		resolved except.ID
		raised   []except.ID
	}
	var rec sync.Map
	handlers := func(key string) map[except.ID]core.Handler {
		hs := make(map[except.ID]core.Handler, g.Len())
		for _, id := range g.Nodes() {
			hs[id] = func(ctx *core.Context, resolved except.ID, raised []except.Raised) error {
				rec.Store(key, decision{resolved: resolved, raised: except.IDsOf(raised)})
				return nil
			}
		}
		return hs
	}
	progs := map[string]core.RoleProgram{
		"a": {
			Body:     func(ctx *core.Context) error { return ctx.Raise("e1", "tcp fault a") },
			Handlers: handlers("a"),
		},
		"b": {
			Body:     func(ctx *core.Context) error { return ctx.Raise("e2", "tcp fault b") },
			Handlers: handlers("b"),
		},
		"c": {
			Body: func(ctx *core.Context) error {
				return ctx.Compute(5 * time.Second) // interrupted long before
			},
			Handlers: handlers("c"),
		},
	}
	var wg sync.WaitGroup
	errs := make(map[string]error)
	var mu sync.Mutex
	// Bind every thread before any starts sending.
	mux := transport.NewMux(clk, net)
	threads := make([]*core.Thread, len(spec.Roles))
	for i, r := range spec.Roles {
		threads[i] = openThread(t, rt, mux, r.Thread)
	}
	for i, r := range spec.Roles {
		role, th := r, threads[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := th.Perform(spec, role.Name, progs[role.Name])
			mu.Lock()
			errs[role.Thread] = err
			mu.Unlock()
		}()
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	// All three threads must have handled the same resolved exception over
	// the same raised set, and it must be exactly the graph's cover-set
	// resolution of that set.
	firstV, ok := rec.Load("a")
	if !ok {
		t.Fatal("handler a never ran")
	}
	first := firstV.(decision)
	for _, k := range []string{"b", "c"} {
		v, ok := rec.Load(k)
		if !ok || fmt.Sprint(v) != fmt.Sprint(first) {
			t.Fatalf("handler %s saw %v, want %v (agreement)", k, v, first)
		}
	}
	if len(first.raised) == 0 {
		t.Fatal("handlers ran with an empty raised set")
	}
	want, err := g.Resolve(first.raised...)
	if err != nil {
		t.Fatal(err)
	}
	if first.resolved != want {
		t.Fatalf("resolved %q for raised %v, cover-set rule says %q", first.resolved, first.raised, want)
	}
}

// TestRuntimeAgreementProperty drives the full runtime with random raiser
// subsets and exception assignments: every thread must decide, all threads
// must agree, and the outcome must equal the graph's own resolution of the
// raised set — Theorem 1's correctness property, end to end.
func TestRuntimeAgreementProperty(t *testing.T) {
	g, err := except.GenerateFull("prop", []except.ID{"e1", "e2", "e3", "e4", "e5"})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		raiserCount := 1 + rng.Intn(n)
		excs := make(map[int]except.ID)
		var ids []except.ID
		perm := rng.Perm(n)
		for i := 0; i < raiserCount; i++ {
			id := except.ID(fmt.Sprintf("e%d", rng.Intn(5)+1))
			excs[perm[i]] = id
			ids = append(ids, id)
		}
		_ = ids // planned raises; slower raisers may be informed first and suspend instead

		e := newEnv(t, time.Duration(1+rng.Intn(10))*time.Millisecond, n)
		roles := make([]core.Role, n)
		for i := range roles {
			roles[i] = core.Role{Name: fmt.Sprintf("r%d", i), Thread: fmt.Sprintf("T%d", i+1)}
		}
		spec := &core.Spec{Name: "prop", Roles: roles, Graph: g}

		var mu sync.Mutex
		seen := make(map[string]except.ID)
		raisedSets := make(map[string][]except.Raised)
		handlers := map[except.ID]core.Handler{}
		for _, id := range g.Nodes() {
			handlers[id] = func(ctx *core.Context, resolved except.ID, raised []except.Raised) error {
				mu.Lock()
				seen[ctx.Self()] = resolved
				raisedSets[ctx.Self()] = raised
				mu.Unlock()
				return nil
			}
		}
		progs := make(map[string]core.RoleProgram, n)
		for i := range roles {
			exc, raises := excs[i]
			stagger := time.Duration(rng.Intn(8)) * time.Millisecond
			if raises {
				progs[roles[i].Name] = core.RoleProgram{
					Body: func(ctx *core.Context) error {
						if err := ctx.Compute(stagger); err != nil {
							return err
						}
						return ctx.Raise(exc, "property fault")
					},
					Handlers: handlers,
				}
			} else {
				progs[roles[i].Name] = core.RoleProgram{
					Body: func(ctx *core.Context) error {
						return ctx.Compute(time.Hour)
					},
					Handlers: handlers,
				}
			}
		}
		res := e.run(spec, progs)
		for _, err := range res {
			if err != nil {
				return false
			}
		}
		if len(seen) != n {
			return false
		}
		// Agreement: every thread handled the same resolving exception,
		// and it is the graph's resolution of the actually raised set
		// (threads informed before their planned raise suspend instead,
		// per the model).
		var resolved except.ID
		var raisedActual []except.Raised
		for id, got := range seen {
			if resolved == except.None {
				resolved = got
				raisedActual = raisedSets[id]
			} else if got != resolved {
				return false
			}
		}
		if len(raisedActual) == 0 {
			return false
		}
		want, err := g.ResolveRaised(raisedActual)
		if err != nil || resolved != want {
			return false
		}
		// Validity: only planned exceptions were raised.
		planned := make(map[except.ID]bool, len(ids))
		for _, id := range ids {
			planned[id] = true
		}
		for _, r := range raisedActual {
			if !planned[r.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDeepNestingAbortCascade drives a three-level nesting chain: an
// exception in the outermost action aborts two nested levels at once; the
// abortion handlers run innermost-first and only the outermost aborted
// level's Eab reaches the containing action (§3.3.1's abort ordering).
func TestDeepNestingAbortCascade(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	g := graph3(t)
	gOuter, err := except.NewBuilder("deep").
		Cover("both", "outer_exc", "eab_level1").
		WithUniversal().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	outer := &core.Spec{
		Name:  "outer",
		Roles: []core.Role{{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}},
		Graph: gOuter,
	}
	// Single-role nested actions: only T1 descends the chain while T2 stays
	// in the containing action.
	mid := &core.Spec{Name: "mid", Roles: []core.Role{{Name: "a", Thread: "T1"}}, Graph: g}
	inner := &core.Spec{Name: "inner", Roles: []core.Role{{Name: "a", Thread: "T1"}}, Graph: g}

	var mu sync.Mutex
	var abortOrder []string
	mark := func(s string) except.ID {
		mu.Lock()
		defer mu.Unlock()
		abortOrder = append(abortOrder, s)
		switch s {
		case "mid": // the level directly below the containing action
			return "eab_level1"
		default: // deeper levels' exceptions must be ignored
			return "eab_level2"
		}
	}
	var rec sync.Map
	res := e.run(outer, map[string]core.RoleProgram{
		"a": {
			Body: func(ctx *core.Context) error {
				return ctx.Enter(mid, "a", core.RoleProgram{
					Body: func(c1 *core.Context) error {
						return c1.Enter(inner, "a", core.RoleProgram{
							Body:    func(c2 *core.Context) error { return c2.Compute(time.Hour) },
							OnAbort: func(*core.Context) except.ID { return mark("inner") },
						})
					},
					OnAbort: func(*core.Context) except.ID { return mark("mid") },
				})
			},
			Handlers: map[except.ID]core.Handler{"both": handlerRecorder(&rec, "a")},
		},
		"b": {
			Body: func(ctx *core.Context) error {
				if err := ctx.Compute(20 * time.Millisecond); err != nil {
					return err
				}
				return ctx.Raise("outer_exc", "")
			},
			Handlers: map[except.ID]core.Handler{"both": handlerRecorder(&rec, "b")},
		},
	})
	for id, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(abortOrder) != 2 || abortOrder[0] != "inner" || abortOrder[1] != "mid" {
		t.Fatalf("abort order = %v, want [inner mid]", abortOrder)
	}
	// The resolving exception covers outer_exc and the *level-1* Eab only.
	for _, k := range []string{"a", "b"} {
		if v, _ := rec.Load(k); v != except.ID("both") {
			t.Fatalf("handler %s saw %v, want both", k, v)
		}
	}
}

// TestNestedAbortPreservesRelayedResolution pins the abort-window routing
// fix: a baseline-protocol Relay that reaches a thread while it is still
// nested (here it even OVERTAKES the enclosing raise, via per-pair
// latencies) must be buffered and replayed into the enclosing resolution
// after the abort cascade, not dropped. Under CR-86, dropping it starves
// maybePropose at that thread and deadlocks the whole action in
// awaitDecision.
func TestNestedAbortPreservesRelayedResolution(t *testing.T) {
	// T3 -> T2 is slow; every other pair is fast. T3's raise reaches T1
	// quickly, T1 relays to T2 quickly, so T2 sees the Relay (in its nested
	// frame) well before the first-hand Exception.
	sim := simenv.New(simenv.LatencyFunc(func(from, to string) time.Duration {
		if from == "T3" && to == "T2" {
			return 50 * time.Millisecond
		}
		return time.Millisecond
	}))
	failed := make(chan string, 1)
	sim.Clock.SetDeadlockHandler(func(info string) {
		select {
		case failed <- info:
		default:
		}
	})
	rt, err := core.New(core.Config{Clock: sim.Clock, Protocol: resolve.CR86{}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := except.GenerateFull("relay", []except.ID{"halt"})
	if err != nil {
		t.Fatal(err)
	}
	outer := &core.Spec{
		Name: "outer",
		Roles: []core.Role{
			{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}, {Name: "c", Thread: "T3"},
		},
		Graph: g,
	}
	nested := &core.Spec{
		Name:  "inner",
		Roles: []core.Role{{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}},
		Graph: g,
	}

	// Descenders announce themselves to the raiser in the outer action, then
	// descend; the raiser raises only after both notices, so the Exception
	// finds both peers inside the nested action. Its slow T3->T2 leg then
	// guarantees T1's Relay reaches T2's NESTED frame first.
	descend := func(role string) core.RoleProgram {
		return core.RoleProgram{Body: func(ctx *core.Context) error {
			if err := ctx.Send("c", "descending"); err != nil {
				return err
			}
			return ctx.Enter(nested, role, core.RoleProgram{
				Body: func(c *core.Context) error { return c.Compute(time.Hour) },
			})
		}}
	}
	raiser := core.RoleProgram{Body: func(ctx *core.Context) error {
		for _, role := range []string{"a", "b"} {
			if _, err := ctx.Recv(role); err != nil {
				return err
			}
		}
		if err := ctx.Compute(5 * time.Millisecond); err != nil {
			return err
		}
		return ctx.Raise("halt", "abort the nested pair")
	}}
	progs := map[string]core.RoleProgram{"a": descend("a"), "b": descend("b"), "c": raiser}
	var outcomes map[string]error
	err = sim.Run(func() ([]func(), error) {
		var participants []func()
		var err error
		participants, outcomes, err = rt.Participants(transport.NewMux(sim.Clock, sim.Net), "t", outer, func(th *core.Thread, r core.Role) error {
			return th.Perform(outer, r.Name, progs[r.Name])
		})
		return participants, err
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case info := <-failed:
		t.Fatalf("action deadlocked — enclosing-frame resolution message lost during abort window: %s", info)
	default:
	}
	for th, err := range outcomes {
		if _, ok := core.Signalled(err); !ok {
			t.Errorf("%s outcome %v, want a signalled exception (µ)", th, err)
		}
	}
}
