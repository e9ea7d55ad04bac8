package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"caaction/internal/core"
	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/simenv"
	"caaction/internal/transport"
)

// env wires a virtual-clock simulation with a runtime and N threads.
type env struct {
	*simenv.Env
	t       *testing.T
	rt      *core.Runtime
	threads map[string]*core.Thread
}

// openThread opens the thread address id on mux as a role of the
// long-lived instance "t", whose actions' identifiers read "t!<spec>#<n>".
func openThread(t *testing.T, rt *core.Runtime, mux *transport.Mux, id string) *core.Thread {
	t.Helper()
	ep, err := mux.Open("t", id)
	if err != nil {
		t.Fatal(err)
	}
	return rt.NewThreadOn(id, ep, core.NewInstance("t!"))
}

func newEnv(t *testing.T, latency time.Duration, n int) *env {
	t.Helper()
	sim := simenv.New(simenv.Latency(latency))
	rt, err := core.New(core.Config{Clock: sim.Clock, Metrics: sim.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{Env: sim, t: t, rt: rt, threads: make(map[string]*core.Thread)}
	mux := transport.NewMux(sim.Clock, sim.Net)
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("T%d", i)
		e.threads[id] = openThread(t, rt, mux, id)
	}
	return e
}

// run performs the same spec on every bound thread and returns per-thread
// outcomes. The threads stay open for the next run.
func (e *env) run(spec *core.Spec, progs map[string]core.RoleProgram) map[string]error {
	e.t.Helper()
	var mu sync.Mutex
	results := make(map[string]error, len(spec.Roles))
	participants := make([]func(), len(spec.Roles))
	for i, r := range spec.Roles {
		th, prog := e.threads[r.Thread], progs[r.Name]
		if _, ok := progs[r.Name]; !ok {
			e.t.Fatalf("no program for role %q", r.Name)
		}
		if th == nil {
			e.t.Fatalf("no thread %q", r.Thread)
		}
		participants[i] = func() {
			err := th.Perform(spec, r.Name, prog)
			mu.Lock()
			results[r.Thread] = err
			mu.Unlock()
		}
	}
	e.Go(participants...)
	return results
}

func graph3(t *testing.T) *except.Graph {
	t.Helper()
	g, err := except.GenerateFull("g", []except.ID{"e1", "e2", "e3"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func spec2(t *testing.T, name string, g *except.Graph, signals ...except.ID) *core.Spec {
	t.Helper()
	return &core.Spec{
		Name:    name,
		Roles:   []core.Role{{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}},
		Graph:   g,
		Signals: signals,
	}
}

func noopBody(ctx *core.Context) error { return nil }

func handlerRecorder(rec *sync.Map, key string) core.Handler {
	return func(ctx *core.Context, resolved except.ID, raised []except.Raised) error {
		rec.Store(key, resolved)
		return nil
	}
}

func TestSuccessfulActionNoExceptions(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "ok", graph3(t))
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {Body: noopBody},
		"b": {Body: noopBody},
	})
	for id, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if e.Metrics.Get("action.completions") != 2 {
		t.Fatalf("completions = %d", e.Metrics.Get("action.completions"))
	}
	// Exit costs one round of toBeSignalled votes: N(N−1) = 2.
	if e.Metrics.Get("msg.ToBeSignalled") != 2 {
		t.Fatalf("votes = %d\n%s", e.Metrics.Get("msg.ToBeSignalled"), e.Metrics)
	}
}

func TestCooperationSendRecv(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "coop", graph3(t))
	var got any
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {Body: func(ctx *core.Context) error {
			return ctx.Send("b", 42)
		}},
		"b": {Body: func(ctx *core.Context) error {
			v, err := ctx.Recv("a")
			if err != nil {
				return err
			}
			got = v
			return nil
		}},
	})
	for id, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if got != 42 {
		t.Fatalf("payload = %v", got)
	}
}

func TestSingleRaiseBothHandle(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "raise1", graph3(t))
	var rec sync.Map
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {
			Body: func(ctx *core.Context) error {
				return ctx.Raise("e1", "detected by a")
			},
			Handlers: map[except.ID]core.Handler{"e1": handlerRecorder(&rec, "a")},
		},
		"b": {
			Body: func(ctx *core.Context) error {
				return ctx.Compute(time.Second) // interrupted by a's exception
			},
			Handlers: map[except.ID]core.Handler{"e1": handlerRecorder(&rec, "b")},
		},
	})
	for id, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	for _, k := range []string{"a", "b"} {
		v, ok := rec.Load(k)
		if !ok || v.(except.ID) != "e1" {
			t.Fatalf("handler %s saw %v", k, v)
		}
	}
	if e.Metrics.Get("action.handler_runs") != 2 {
		t.Fatalf("handler runs = %d", e.Metrics.Get("action.handler_runs"))
	}
	// The informed role must have been interrupted well before 1s of
	// virtual compute.
	if now := e.Clock.Now(); now >= time.Second {
		t.Fatalf("virtual time %v suggests no interruption", now)
	}
}

func TestConcurrentRaisesResolveToCover(t *testing.T) {
	e := newEnv(t, 10*time.Millisecond, 2)
	spec := spec2(t, "raise2", graph3(t))
	var rec sync.Map
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {
			Body: func(ctx *core.Context) error {
				return ctx.Raise("e1", "")
			},
			Handlers: map[except.ID]core.Handler{"e1+e2": handlerRecorder(&rec, "a")},
		},
		"b": {
			Body: func(ctx *core.Context) error {
				return ctx.Raise("e2", "")
			},
			Handlers: map[except.ID]core.Handler{"e1+e2": handlerRecorder(&rec, "b")},
		},
	})
	for id, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	for _, k := range []string{"a", "b"} {
		v, _ := rec.Load(k)
		if v != except.ID("e1+e2") {
			t.Fatalf("handler %s saw %v, want e1+e2", k, v)
		}
	}
}

func TestUnhandledDeclaredExceptionIsSignalled(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "sig", graph3(t), "e3")
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {Body: func(ctx *core.Context) error { return ctx.Raise("e3", "") }},
		"b": {Body: func(ctx *core.Context) error { return ctx.Compute(time.Second) }},
	})
	for id, err := range res {
		se, ok := core.Signalled(err)
		if !ok || se.Exc != "e3" {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

func TestUnhandledUndeclaredExceptionUndoes(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	obj, err := e.rt.Objects().Define("acc", 100)
	if err != nil {
		t.Fatal(err)
	}
	spec := spec2(t, "undo", graph3(t))
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {Body: func(ctx *core.Context) error {
			if err := ctx.Tx().Write("acc", 55); err != nil {
				return err
			}
			return ctx.Raise("e2", "")
		}},
		"b": {Body: func(ctx *core.Context) error { return ctx.Compute(time.Second) }},
	})
	for id, err := range res {
		if !core.IsUndone(err) {
			t.Fatalf("%s: %v, want µ", id, err)
		}
	}
	if obj.Peek() != 100 {
		t.Fatalf("object not restored: %v", obj.Peek())
	}
	if e.Metrics.Get("action.undone") != 2 {
		t.Fatalf("undone = %d", e.Metrics.Get("action.undone"))
	}
}

func TestHandlerRepairsExternalObject(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	obj, err := e.rt.Objects().Define("acc", 100)
	if err != nil {
		t.Fatal(err)
	}
	spec := spec2(t, "repair", graph3(t))
	repair := func(ctx *core.Context, resolved except.ID, raised []except.Raised) error {
		if ctx.Role() == "a" {
			return ctx.Tx().Write("acc", 777) // forward recovery to a new valid state
		}
		return nil
	}
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {
			Body: func(ctx *core.Context) error {
				if err := ctx.Tx().Write("acc", -1); err != nil {
					return err
				}
				return ctx.Raise("e1", "bad write")
			},
			Handlers: map[except.ID]core.Handler{"e1": repair},
		},
		"b": {
			Body:     func(ctx *core.Context) error { return ctx.Compute(time.Second) },
			Handlers: map[except.ID]core.Handler{"e1": repair},
		},
	})
	for id, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if obj.Peek() != 777 {
		t.Fatalf("repaired state lost: %v", obj.Peek())
	}
}

func TestDamagedObjectForcesFailure(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	obj, err := e.rt.Objects().Define("acc", 100)
	if err != nil {
		t.Fatal(err)
	}
	spec := spec2(t, "dmg", graph3(t))
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {Body: func(ctx *core.Context) error {
			if err := ctx.Tx().Write("acc", -1); err != nil {
				return err
			}
			if err := ctx.Tx().MarkDamaged("acc"); err != nil {
				return err
			}
			return ctx.Raise("e2", "")
		}},
		"b": {Body: func(ctx *core.Context) error { return ctx.Compute(time.Second) }},
	})
	for id, err := range res {
		if !core.IsFailed(err) {
			t.Fatalf("%s: %v, want ƒ", id, err)
		}
	}
	if obj.Peek() != -1 {
		t.Fatalf("damaged object unexpectedly restored: %v", obj.Peek())
	}
}

func TestHandlerRaisesNewRound(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "rounds", graph3(t))
	var rec sync.Map
	h1 := func(ctx *core.Context, resolved except.ID, raised []except.Raised) error {
		if ctx.Role() == "a" {
			return ctx.Raise("e2", "secondary fault in handler")
		}
		return ctx.Compute(time.Second)
	}
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {
			Body: func(ctx *core.Context) error { return ctx.Raise("e1", "") },
			Handlers: map[except.ID]core.Handler{
				"e1": h1, "e2": handlerRecorder(&rec, "a2"),
			},
		},
		"b": {
			Body: func(ctx *core.Context) error { return ctx.Compute(time.Second) },
			Handlers: map[except.ID]core.Handler{
				"e1": h1, "e2": handlerRecorder(&rec, "b2"),
			},
		},
	})
	for id, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if v, _ := rec.Load("a2"); v != except.ID("e2") {
		t.Fatalf("round-2 handler at a saw %v", v)
	}
	if v, _ := rec.Load("b2"); v != except.ID("e2") {
		t.Fatalf("round-2 handler at b saw %v", v)
	}
	if e.Metrics.Get("action.rounds") != 4 { // 2 rounds × 2 threads
		t.Fatalf("rounds = %d", e.Metrics.Get("action.rounds"))
	}
}

func TestBodyPlainErrorRaisesUniversal(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "plain", graph3(t))
	var rec sync.Map
	uh := func(key string) core.Handler { return handlerRecorder(&rec, key) }
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {
			Body:     func(ctx *core.Context) error { return errors.New("unexpected fault") },
			Handlers: map[except.ID]core.Handler{except.Universal: uh("a")},
		},
		"b": {
			Body:     func(ctx *core.Context) error { return ctx.Compute(time.Second) },
			Handlers: map[except.ID]core.Handler{except.Universal: uh("b")},
		},
	})
	for id, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if v, _ := rec.Load("b"); v != except.Universal {
		t.Fatalf("b handler saw %v", v)
	}
}

func TestNestedActionSuccess(t *testing.T) {
	e := newEnv(t, time.Millisecond, 3)
	g := graph3(t)
	outer := &core.Spec{
		Name: "outer",
		Roles: []core.Role{
			{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}, {Name: "c", Thread: "T3"},
		},
		Graph: g,
	}
	inner := spec2(t, "inner", g)
	var order []string
	var mu sync.Mutex
	mark := func(s string) {
		mu.Lock()
		defer mu.Unlock()
		order = append(order, s)
	}
	nestedBody := func(ctx *core.Context) error {
		mark("nested:" + ctx.Role())
		return nil
	}
	res := e.run(outer, map[string]core.RoleProgram{
		"a": {Body: func(ctx *core.Context) error {
			if err := ctx.Enter(inner, "a", core.RoleProgram{Body: nestedBody}); err != nil {
				return err
			}
			mark("after:a")
			return nil
		}},
		"b": {Body: func(ctx *core.Context) error {
			if err := ctx.Enter(inner, "b", core.RoleProgram{Body: nestedBody}); err != nil {
				return err
			}
			mark("after:b")
			return nil
		}},
		"c": {Body: func(ctx *core.Context) error {
			return ctx.Compute(5 * time.Millisecond)
		}},
	})
	for id, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
}

func TestNestedSignalRaisedInEnclosing(t *testing.T) {
	e := newEnv(t, time.Millisecond, 3)
	inner := spec2(t, "inner", graph3(t), "eps")
	gOuter, err := except.NewBuilder("gouter").
		Node("eps").
		WithUniversal().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	outer := &core.Spec{
		Name: "outer",
		Roles: []core.Role{
			{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}, {Name: "c", Thread: "T3"},
		},
		Graph: gOuter,
	}
	var rec sync.Map
	h := func(key string) core.Handler { return handlerRecorder(&rec, key) }
	enterInner := func(role string) core.Body {
		return func(ctx *core.Context) error {
			return ctx.Enter(inner, role, core.RoleProgram{
				Body: func(c2 *core.Context) error {
					if c2.Role() == "a" {
						return c2.Raise("e1", "nested fault")
					}
					return c2.Compute(time.Second)
				},
				// No handler for e1 in the nested action; e1 is not
				// declared as a nested signal, so the nested action
				// undoes... unless declared. Here we give a handler that
				// converts it to the declared ε.
				Handlers: map[except.ID]core.Handler{
					"e1": func(c2 *core.Context, _ except.ID, _ []except.Raised) error {
						return c2.Signal("eps")
					},
				},
			})
		}
	}
	res := e.run(outer, map[string]core.RoleProgram{
		"a": {Body: enterInner("a"), Handlers: map[except.ID]core.Handler{"eps": h("a")}},
		"b": {Body: enterInner("b"), Handlers: map[except.ID]core.Handler{"eps": h("b")}},
		"c": {
			Body:     func(ctx *core.Context) error { return ctx.Compute(time.Second) },
			Handlers: map[except.ID]core.Handler{"eps": h("c")},
		},
	})
	for id, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	// All three enclosing roles (including T3, which never entered the
	// nested action) must have handled eps.
	for _, k := range []string{"a", "b", "c"} {
		if v, ok := rec.Load(k); !ok || v != except.ID("eps") {
			t.Fatalf("enclosing handler %s saw %v", k, v)
		}
	}
}

// TestFig4AbortCascade reproduces the paper's Figure 4 / §5.2 scenario: an
// exception in the containing action aborts the nested action; the abortion
// handler raises a further exception; the resolving exception covers both
// and is handled by all participants.
func TestFig4AbortCascade(t *testing.T) {
	e := newEnv(t, time.Millisecond, 3)
	gInner := graph3(t)
	gOuter, err := except.NewBuilder("gouter").
		Cover("outer_exc+abort_exc", "outer_exc", "abort_exc").
		WithUniversal().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	outer := &core.Spec{
		Name: "outer",
		Roles: []core.Role{
			{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}, {Name: "c", Thread: "T3"},
		},
		Graph: gOuter,
	}
	inner := spec2(t, "inner", gInner)

	var rec sync.Map
	h := func(key string) core.Handler { return handlerRecorder(&rec, key) }
	nested := func(role string, onAbort core.AbortHandler) core.Body {
		return func(ctx *core.Context) error {
			return ctx.Enter(inner, role, core.RoleProgram{
				Body: func(c2 *core.Context) error {
					return c2.Compute(10 * time.Second) // aborted long before
				},
				OnAbort: onAbort,
			})
		}
	}
	res := e.run(outer, map[string]core.RoleProgram{
		"a": {
			Body: nested("a", func(ctx *core.Context) except.ID {
				return "abort_exc" // Eab raised in the containing action
			}),
			Handlers: map[except.ID]core.Handler{"outer_exc+abort_exc": h("a")},
		},
		"b": {
			Body:     nested("b", nil),
			Handlers: map[except.ID]core.Handler{"outer_exc+abort_exc": h("b")},
		},
		"c": {
			Body: func(ctx *core.Context) error {
				if err := ctx.Compute(20 * time.Millisecond); err != nil {
					return err
				}
				return ctx.Raise("outer_exc", "raised while a,b nested")
			},
			Handlers: map[except.ID]core.Handler{"outer_exc+abort_exc": h("c")},
		},
	})
	for id, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	for _, k := range []string{"a", "b", "c"} {
		v, ok := rec.Load(k)
		if !ok || v != except.ID("outer_exc+abort_exc") {
			t.Fatalf("handler %s saw %v, want outer_exc+abort_exc", k, v)
		}
	}
	if e.Metrics.Get("action.aborted") != 2 {
		t.Fatalf("aborted = %d, want 2 (both nested roles)", e.Metrics.Get("action.aborted"))
	}
}

func TestExitAbandonedByLateRaise(t *testing.T) {
	e := newEnv(t, 5*time.Millisecond, 2)
	spec := spec2(t, "late", graph3(t))
	var rec sync.Map
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {
			Body:     noopBody, // votes to exit immediately
			Handlers: map[except.ID]core.Handler{"e2": handlerRecorder(&rec, "a")},
		},
		"b": {
			Body: func(ctx *core.Context) error {
				if err := ctx.Compute(20 * time.Millisecond); err != nil {
					return err
				}
				return ctx.Raise("e2", "raised after a voted to exit")
			},
			Handlers: map[except.ID]core.Handler{"e2": handlerRecorder(&rec, "b")},
		},
	})
	for id, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	for _, k := range []string{"a", "b"} {
		if v, _ := rec.Load(k); v != except.ID("e2") {
			t.Fatalf("handler %s saw %v", k, v)
		}
	}
}

func TestLostVoteDegradesToFailure(t *testing.T) {
	sim := simenv.New(simenv.Latency(time.Millisecond))
	rt, err := core.New(core.Config{
		Clock: sim.Clock, Metrics: sim.Metrics,
		SignalTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMux(sim.Clock, sim.Net)
	t1, t2 := openThread(t, rt, mux, "T1"), openThread(t, rt, mux, "T2")
	// Drop T2's votes to T1 (the paper's l_mes fault).
	sim.Net.SetFault(func(from, to string, msg protocol.Message) transport.Fault {
		if msg.Kind == protocol.KindToBeSignalled && from == "T2" {
			return transport.Drop
		}
		return transport.Deliver
	})
	spec := spec2(t, "lmes", graph3(t))
	var e1, e2 error
	sim.Go(
		func() { e1 = t1.Perform(spec, "a", core.RoleProgram{Body: noopBody}) },
		func() { e2 = t2.Perform(spec, "b", core.RoleProgram{Body: noopBody}) },
	)
	if !core.IsFailed(e1) {
		t.Fatalf("T1 outcome %v, want ƒ", e1)
	}
	// T2 received T1's vote normally and exits cleanly — only the thread
	// behind the faulty link degrades, per the §3.4 extension.
	if e2 != nil && !core.IsFailed(e2) {
		t.Fatalf("T2 outcome %v", e2)
	}
}

func TestRepeatedActionsInLoop(t *testing.T) {
	// The paper's experiments execute the application in a loop (20
	// times); instance identifiers must stay agreed across iterations.
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "loop", graph3(t))
	var mu sync.Mutex
	count := 0
	var errs []error
	body := func(ctx *core.Context) error { return ctx.Compute(time.Millisecond) }
	var participants []func()
	for _, r := range spec.Roles {
		role := r
		th := e.threads[role.Thread]
		participants = append(participants, func() {
			for i := 0; i < 20; i++ {
				if err := th.Perform(spec, role.Name, core.RoleProgram{Body: body}); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				mu.Lock()
				count++
				mu.Unlock()
			}
		})
	}
	e.Go(participants...)
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	if count != 40 {
		t.Fatalf("completed %d role-iterations, want 40", count)
	}
}

func TestSpecValidation(t *testing.T) {
	g := graph3(t)
	cases := []struct {
		name string
		spec *core.Spec
	}{
		{"empty name", &core.Spec{Roles: []core.Role{{Name: "a", Thread: "T1"}}, Graph: g}},
		{"no roles", &core.Spec{Name: "x", Graph: g}},
		{"no graph", &core.Spec{Name: "x", Roles: []core.Role{{Name: "a", Thread: "T1"}}}},
		{"dup role", &core.Spec{Name: "x", Graph: g,
			Roles: []core.Role{{Name: "a", Thread: "T1"}, {Name: "a", Thread: "T2"}}}},
		{"dup thread", &core.Spec{Name: "x", Graph: g,
			Roles: []core.Role{{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T1"}}}},
		{"unbound", &core.Spec{Name: "x", Graph: g, Roles: []core.Role{{Name: "a"}}}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
}

func TestPerformErrors(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "cfg", graph3(t))
	th := e.threads["T1"]
	var err1, err2, err3 error
	e.Go(func() {
		err1 = th.Perform(spec, "nope", core.RoleProgram{Body: noopBody})
		err2 = th.Perform(spec, "b", core.RoleProgram{Body: noopBody}) // bound to T2
		err3 = th.Perform(spec, "a", core.RoleProgram{})               // no body
	})
	if !errors.Is(err1, core.ErrUnknownRole) {
		t.Fatalf("err1 = %v", err1)
	}
	if !errors.Is(err2, core.ErrNotYourRole) {
		t.Fatalf("err2 = %v", err2)
	}
	if !errors.Is(err3, core.ErrBodyRequired) {
		t.Fatalf("err3 = %v", err3)
	}
}

func TestSignalValidation(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "sv", graph3(t), "eps")
	var sigErr, undeclErr error
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {Body: func(ctx *core.Context) error {
			undeclErr = ctx.Signal("ghost")
			sigErr = ctx.Signal("eps")
			return nil
		}},
		"b": {Body: noopBody},
	})
	if undeclErr == nil {
		t.Fatal("undeclared signal accepted")
	}
	if sigErr != nil {
		t.Fatalf("declared signal rejected: %v", sigErr)
	}
	se, ok := core.Signalled(res["T1"])
	if !ok || se.Exc != "eps" {
		t.Fatalf("T1 outcome %v", res["T1"])
	}
	if res["T2"] != nil {
		t.Fatalf("T2 outcome %v", res["T2"])
	}
}

// TestContextDepthAndInstanceTag pins the parsed-identifier cache on the
// frame: depth and mux tag are read straight from the cached form, for
// top-level and nested frames.
func TestContextDepthAndInstanceTag(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	nested := spec2(t, "inner", graph3(t))
	outer := spec2(t, "outer", graph3(t))

	type seen struct {
		id   string
		d    int
		tag  string
		nid  string
		nd   int
		ntag string
	}
	var got seen
	progs := map[string]core.RoleProgram{
		"a": {Body: func(ctx *core.Context) error {
			got.id, got.d, got.tag = ctx.ActionID(), ctx.Depth(), ctx.InstanceTag()
			return ctx.Enter(nested, "a", core.RoleProgram{Body: func(c2 *core.Context) error {
				got.nid, got.nd, got.ntag = c2.ActionID(), c2.Depth(), c2.InstanceTag()
				return nil
			}})
		}},
		"b": {Body: func(ctx *core.Context) error {
			return ctx.Enter(nested, "b", core.RoleProgram{Body: noopBody})
		}},
	}
	for _, err := range e.run(outer, progs) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got.id != "t!outer#1" || got.d != 0 || got.tag != "t" {
		t.Fatalf("outer frame: id=%q depth=%d tag=%q", got.id, got.d, got.tag)
	}
	if got.nid != "t!outer#1/inner#1" || got.nd != 1 || got.ntag != "t" {
		t.Fatalf("nested frame: id=%q depth=%d tag=%q", got.nid, got.nd, got.ntag)
	}
}

// TestInstanceTagOnMuxedThread: a thread created with an instance prefix
// (NewThreadOn) derives identifiers tagged with it, and its cached parsed
// form carries the bare tag.
func TestInstanceTagOnMuxedThread(t *testing.T) {
	sim := simenv.New()
	rt, err := core.New(core.Config{Clock: sim.Clock})
	if err != nil {
		t.Fatal(err)
	}
	spec := &core.Spec{
		Name:  "solo",
		Roles: []core.Role{{Name: "a", Thread: "T1"}},
		Graph: graph3(t),
	}
	ep, err := sim.Net.Endpoint("T1")
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThreadOn("T1", ep, core.NewInstance("a7!"))
	var id, tag string
	var depth int
	sim.Go(func() {
		_ = th.Perform(spec, "a", core.RoleProgram{Body: func(ctx *core.Context) error {
			id, tag, depth = ctx.ActionID(), ctx.InstanceTag(), ctx.Depth()
			return nil
		}})
	})
	if id != "a7!solo#1" || tag != "a7" || depth != 0 {
		t.Fatalf("muxed frame: id=%q tag=%q depth=%d", id, tag, depth)
	}
}

// TestValidateFailureIsNotCached: an invalid spec can be fixed and
// retried — only the first SUCCESSFUL Validate latches.
func TestValidateFailureIsNotCached(t *testing.T) {
	s := &core.Spec{ // no name yet
		Roles: []core.Role{{Name: "a", Thread: "T1"}},
		Graph: graph3(t),
	}
	if err := s.Validate(); err == nil {
		t.Fatal("empty name validated")
	}
	s.Name = "fixed"
	if err := s.Validate(); err != nil {
		t.Fatalf("corrected spec still rejected: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("cached success lost: %v", err)
	}
}
