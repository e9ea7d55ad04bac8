package core

// Pool-hygiene tests: the lifecycle pools (Thread.Recycle, releaseFrame,
// signal's instance pool) must hand back objects indistinguishable from
// fresh ones — no counters, pending buffers, parsed identifiers or stack
// state may survive a recycle. These are deterministic virtual-clock tests;
// they live in the core package (not core_test) so they can assert on the
// scrubbed fields directly rather than only on behaviour.

import (
	"reflect"
	"testing"
	"time"

	"caaction/internal/except"
	"caaction/internal/simenv"
	"caaction/internal/transport"
)

func poolEnv(t *testing.T) (*simenv.Env, *Runtime) {
	t.Helper()
	env := simenv.New()
	rt, err := New(Config{Clock: env.Clock, Metrics: env.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	return env, rt
}

// poolThreads opens T1 and T2 on a fresh mux over env as roles of the
// instance "t".
func poolThreads(t *testing.T, env *simenv.Env, rt *Runtime) (t1, t2 *Thread) {
	t.Helper()
	mux := transport.NewMux(env.Clock, env.Net)
	open := func(id string) *Thread {
		ep, err := mux.Open("t", id)
		if err != nil {
			t.Fatal(err)
		}
		return rt.NewThreadOn(id, ep, "t!")
	}
	return open("T1"), open("T2")
}

// performPair performs poolSpec's two roles on t1 and t2, both with body.
func performPair(t *testing.T, env *simenv.Env, spec *Spec, t1, t2 *Thread, body Body) {
	t.Helper()
	errs := make([]error, 2)
	env.Go(
		func() { errs[0] = t1.Perform(spec, "a", RoleProgram{Body: body}) },
		func() { errs[1] = t2.Perform(spec, "b", RoleProgram{Body: body}) },
	)
	for i, err := range errs {
		if err != nil {
			t.Errorf("T%d: %v", i+1, err)
		}
	}
}

func poolSpec(t *testing.T, name string) *Spec {
	t.Helper()
	return &Spec{
		Name:  name,
		Roles: []Role{{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}},
		Graph: poolGraph(t),
	}
}

func poolGraph(t *testing.T) *except.Graph {
	t.Helper()
	g, err := except.GenerateFull("g", []except.ID{"e1"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestThreadRecycleScrubsState performs an action that populates every piece
// of per-incarnation thread state (instance sequence numbers, the dead set,
// an identifier build), recycles the threads, and asserts the recycle
// contract field by field: empty stack, cleared maps, detached endpoint.
func TestThreadRecycleScrubsState(t *testing.T) {
	env, rt := poolEnv(t)
	spec := poolSpec(t, "hyg")
	t1, t2 := poolThreads(t, env, rt)
	performPair(t, env, spec, t1, t2, func(ctx *Context) error {
		return ctx.Compute(time.Millisecond)
	})

	if got := len(t1.seq); got == 0 {
		t.Fatalf("expected a populated seq map before recycle")
	}
	if got := len(t1.dead); got == 0 {
		t.Fatalf("expected a populated dead set before recycle")
	}
	_ = t1.Close()
	_ = t2.Close()
	// Plant inline-lane residue by hand (the virtual clock never runs the
	// lane) so the recycle contract for the event-loop fields is pinned too.
	t1.inline = true
	t1.inRoute = true
	t1.deferred = &[]transport.Outbound{{To: "T2"}}
	t1.park = parkState{kind: parkCompute}
	t1.Recycle()
	if t1.id != "" || t1.prefix != "" || t1.ep != nil {
		t.Errorf("recycled thread keeps identity: id=%q prefix=%q ep=%v", t1.id, t1.prefix, t1.ep)
	}
	if len(t1.stack) != 0 || len(t1.retained) != 0 || len(t1.dead) != 0 || len(t1.seq) != 0 {
		t.Errorf("recycled thread keeps state: stack=%d retained=%d dead=%d seq=%d",
			len(t1.stack), len(t1.retained), len(t1.dead), len(t1.seq))
	}
	if t1.inline || t1.iep != nil || t1.inRoute || t1.deferred != nil || t1.park != (parkState{}) {
		t.Errorf("recycled thread keeps inline-lane state: inline=%v iep=%v inRoute=%v deferred=%v park=%+v",
			t1.inline, t1.iep, t1.inRoute, t1.deferred, t1.park)
	}
}

// TestRecycledThreadRestartsInstanceSequence pins the observable half of the
// contract: a recycled thread's first action is instance "#1" again — the
// property StartAction's wire identifiers rely on (the mux tag, not the
// sequence number, is what keeps concurrent instances apart).
func TestRecycledThreadRestartsInstanceSequence(t *testing.T) {
	env, rt := poolEnv(t)
	spec := poolSpec(t, "seq")

	run := func() (id1, id2 string) {
		t1, t2 := poolThreads(t, env, rt)
		ids := make(chan string, 2)
		body := func(ctx *Context) error {
			ids <- ctx.ActionID()
			return nil
		}
		performPair(t, env, spec, t1, t2, body)
		_ = t1.Close()
		_ = t2.Close()
		t1.Recycle()
		t2.Recycle()
		return <-ids, <-ids
	}
	id1, id2 := run()
	if id1 != "t!seq#1" || id2 != "t!seq#1" {
		t.Fatalf("first incarnation ids = %q/%q, want t!seq#1", id1, id2)
	}
	// The recycled threads must restart at #1, not resume at #2.
	id1, id2 = run()
	if id1 != "t!seq#1" || id2 != "t!seq#1" {
		t.Fatalf("recycled incarnation ids = %q/%q, want t!seq#1 (sequence state leaked)", id1, id2)
	}
}

// TestRecycleMidActionIsNoop: a thread still holding frames is mid-protocol
// and must never enter the pool.
func TestRecycleMidActionIsNoop(t *testing.T) {
	env, rt := poolEnv(t)
	th, _ := poolThreads(t, env, rt)
	spec := &Spec{Name: "mid", Roles: []Role{{Name: "a", Thread: "T1"}}, Graph: poolGraph(t)}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	th.pushFrame(nil, spec, "a", RoleProgram{Body: func(*Context) error { return nil }})
	th.Recycle()
	if th.id != "T1" || len(th.stack) != 1 {
		t.Fatalf("mid-action Recycle mutated the thread: id=%q stack=%d", th.id, len(th.stack))
	}
}

// TestFrameReleaseScrubsEverything pops a frame through releaseFrame and
// checks, field by field, that the pooled object is zero apart from what the
// hygiene contract lets survive: the bumped generation, the bound undo and
// resolve methods, and the entered and votes slices at length 0 — votes
// keeping its backing array with every slot zeroed.
func TestFrameReleaseScrubsEverything(t *testing.T) {
	env, rt := poolEnv(t)
	th, _ := poolThreads(t, env, rt)
	spec := &Spec{Name: "fr", Roles: []Role{{Name: "a", Thread: "T1"}}, Graph: poolGraph(t)}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	f := th.pushFrame(nil, spec, "a", RoleProgram{Body: func(*Context) error { return nil }})
	f.round = 3
	f.informed = true
	f.epsilon = "e1"
	f.votes = append(f.votes, transport.Delivery{From: "T9"}, transport.Delivery{From: "T8"})
	f.future = append(f.future, transport.Delivery{From: "T9"})
	f.pendingAbort = append(f.pendingAbort, transport.Delivery{From: "T9"})
	f.addApp("T9", "payload")
	th.ensureInstance(f)
	gen := f.gen
	th.popFrame(f)

	if f.gen != gen+1 {
		t.Errorf("generation not bumped: %d -> %d", gen, f.gen)
	}
	v := reflect.ValueOf(f).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; name {
		case "gen", "undoFn", "resolveFn", "raiseErr", "interruptErr", "entered", "votes":
			// Checked below.
		default:
			if !v.Field(i).IsZero() {
				t.Errorf("released frame keeps %s: %+v", name, v.Field(i))
			}
		}
	}
	if f.undoFn == nil || f.resolveFn == nil {
		t.Errorf("released frame dropped its bound methods: undoFn=%v resolveFn=%v", f.undoFn != nil, f.resolveFn != nil)
	}
	for _, e := range []struct {
		err  *pendingError
		kind pendingKind
	}{{f.raiseErr, kindRaise}, {f.interruptErr, kindInterrupt}} {
		if e.err == nil || *e.err != (pendingError{kind: e.kind, frame: f}) {
			t.Errorf("released frame's kind %d control error is %+v, want one bound to the frame", e.kind, e.err)
		}
	}
	if len(f.entered) != 0 {
		t.Errorf("released frame's entered slice has length %d, want 0", len(f.entered))
	}
	if len(f.votes) != 0 || cap(f.votes) < 2 {
		t.Errorf("released frame's votes slice has length %d and capacity %d, want 0 and its old backing array", len(f.votes), cap(f.votes))
	}
	for i, d := range f.votes[:cap(f.votes)] {
		if !reflect.ValueOf(d).IsZero() {
			t.Errorf("released frame's votes slot %d keeps %+v", i, d)
		}
	}
}

// TestStaleContextAccessors holds a Context past its action and runs a
// second action on the same threads, which takes the released frame from
// the pool when the pool kept it. The held Context must still name its own
// action, and every accessor that reads the frame must panic instead of
// answering for the second action: its transaction, role, depth, instance
// tag, spec name and round are not the held Context's, and neither is its
// exit vote.
func TestStaleContextAccessors(t *testing.T) {
	env, rt := poolEnv(t)
	spec := poolSpec(t, "stale")
	t1, t2 := poolThreads(t, env, rt)
	var held *Context
	performPair(t, env, spec, t1, t2, func(ctx *Context) error {
		if ctx.Self() == "T1" {
			held = ctx
		}
		return nil
	})
	var (
		reused  bool
		ownID   string
		heldID  string
		txPanic any
		panics  = map[string]any{}
	)
	performPair(t, env, spec, t1, t2, func(ctx *Context) error {
		if ctx.Self() != "T1" {
			return nil
		}
		reused = held.f == ctx.f
		ownID, heldID = ctx.ActionID(), held.ActionID()
		func() {
			defer func() { txPanic = recover() }()
			_ = held.Tx()
		}()
		for name, use := range map[string]func(){
			"Role":        func() { _ = held.Role() },
			"Depth":       func() { _ = held.Depth() },
			"InstanceTag": func() { _ = held.InstanceTag() },
			"SpecName":    func() { _ = held.SpecName() },
			"Round":       func() { _ = held.Round() },
			"Signal":      func() { _ = held.Signal(except.None) },
		} {
			func() {
				defer func() { panics[name] = recover() }()
				use()
			}()
		}
		return nil
	})
	t.Logf("frame reused by the second action: %v", reused)
	if ownID != "t!stale#2" || heldID != "t!stale#1" {
		t.Errorf("ActionID: second action %q, held Context %q; want t!stale#2 and t!stale#1", ownID, heldID)
	}
	want := "core: Context for t!stale#1 used outside its frame"
	if msg, _ := txPanic.(string); msg != want {
		t.Errorf("held Context's Tx() panicked with %v, want %q", txPanic, want)
	}
	for name, p := range panics {
		if msg, _ := p.(string); msg != want {
			t.Errorf("held Context's %s panicked with %v, want %q", name, p, want)
		}
	}
}
