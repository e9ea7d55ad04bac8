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
	"unsafe"

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
	inst := NewInstance("t!")
	open := func(id string) *Thread {
		ep, err := mux.Open("t", id)
		if err != nil {
			t.Fatal(err)
		}
		return rt.NewThreadOn(id, ep, inst)
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
	if t1.id != "" || t1.inst != nil || t1.ep != nil {
		t.Errorf("recycled thread keeps identity: id=%q inst=%v ep=%v", t1.id, t1.inst, t1.ep)
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
// resolve methods and control errors, and the entered, votes, pendingAbort
// and apps buffers at length 0 — each keeping its backing array with every
// slot zeroed. The frame first gets a transaction with an object in its
// use set, App payloads (one taken), a pending abort with the abort error's
// target set, a child's abort error and a resolution round.
func TestFrameReleaseScrubsEverything(t *testing.T) {
	env, rt := poolEnv(t)
	th, _ := poolThreads(t, env, rt)
	spec := &Spec{Name: "fr", Roles: []Role{{Name: "a", Thread: "T1"}}, Graph: poolGraph(t)}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Objects().Define("acct", 1); err != nil {
		t.Fatal(err)
	}
	f := th.pushFrame(nil, spec, "a", RoleProgram{Body: func(*Context) error { return nil }})
	if err := f.txn().Write("acct", 2); err != nil {
		t.Fatal(err)
	}
	f.round = 3
	f.informed = true
	f.epsilon = "e1"
	f.votes = append(f.votes, transport.Delivery{From: "T9"}, transport.Delivery{From: "T8"})
	f.future = append(f.future, transport.Delivery{From: "T9"})
	f.pendingAbort = append(f.pendingAbort, transport.Delivery{From: "T9"})
	f.addApp("T1", "taken")
	f.addApp("T1", "waiting")
	if got := f.takeApp(0); got != "taken" {
		t.Fatalf("takeApp = %v, want the first payload", got)
	}
	f.abort("t!outer#1")
	f.childAbort = abortError{target: "t!outer#1", eab: "e1"}
	th.ensureInstance(f)
	gen := f.gen
	th.popFrame(f)

	if f.gen != gen+1 {
		t.Errorf("generation not bumped: %d -> %d", gen, f.gen)
	}
	v := reflect.ValueOf(f).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; name {
		case "gen", "undoFn", "resolveFn", "raiseErr", "interruptErr", "abortErr", "childAbort",
			"entered", "votes", "pendingAbort", "apps":
			// Checked below.
		default:
			if !v.Field(i).IsZero() {
				t.Errorf("released frame keeps %s: %+v", name, v.Field(i))
			}
		}
	}
	if f.tx != nil || f.inst != nil || f.round != 0 {
		t.Errorf("released frame keeps a transaction (%v), resolution instance (%v) or round (%d)", f.tx, f.inst, f.round)
	}
	if f.undoFn == nil || f.resolveFn == nil {
		t.Errorf("released frame dropped its bound methods: undoFn=%v resolveFn=%v", f.undoFn != nil, f.resolveFn != nil)
	}
	for _, e := range []struct {
		err  pendingError
		kind pendingKind
	}{{f.raiseErr, kindRaise}, {f.interruptErr, kindInterrupt}, {f.abortErr, kindAbort}} {
		if e.err != (pendingError{kind: e.kind, frame: f}) {
			t.Errorf("released frame's kind %d control error is %+v, want one bound to the frame with no target", e.kind, e.err)
		}
	}
	if f.childAbort != (abortError{}) {
		t.Errorf("released frame's child abort error is %+v, want a zero one", f.childAbort)
	}
	if len(f.entered) != 0 {
		t.Errorf("released frame's entered slice has length %d, want 0", len(f.entered))
	}
	for _, b := range []struct {
		name string
		s    []transport.Delivery
		min  int
	}{{"votes", f.votes, 2}, {"pendingAbort", f.pendingAbort, 1}} {
		if len(b.s) != 0 || cap(b.s) < b.min {
			t.Errorf("released frame's %s slice has length %d and capacity %d, want 0 and its old backing array", b.name, len(b.s), cap(b.s))
		}
		for i, d := range b.s[:cap(b.s)] {
			if !reflect.ValueOf(d).IsZero() {
				t.Errorf("released frame's %s slot %d keeps %+v", b.name, i, d)
			}
		}
	}
	if len(f.apps) != 0 || cap(f.apps) < 1 {
		t.Fatalf("released frame's apps slice has length %d and capacity %d, want 0 and its old backing array", len(f.apps), cap(f.apps))
	}
	for i, q := range f.apps[:cap(f.apps)] {
		if len(q.buf) != 0 || q.head != 0 {
			t.Errorf("released frame's App queue %d holds %d payloads from %d", i, len(q.buf), q.head)
		}
		for j, p := range q.buf[:cap(q.buf)] {
			if p != nil {
				t.Errorf("released frame's App queue %d slot %d keeps %v", i, j, p)
			}
		}
	}
	if cap(f.apps[:1][0].buf) < 2 {
		t.Errorf("released frame's App queue lost its capacity: %d", cap(f.apps[:1][0].buf))
	}
}

// TestStaleContextTxPanics: a Context whose body never asked for a
// transaction must not create one after its action ended — the frame may
// serve another action by then, which would find a transaction it never
// began. Tx panics like the other stale accessors, outside any action and
// inside a later one, and the later action's frame stays without one.
func TestStaleContextTxPanics(t *testing.T) {
	env, rt := poolEnv(t)
	spec := poolSpec(t, "stx")
	t1, t2 := poolThreads(t, env, rt)
	var held *Context
	performPair(t, env, spec, t1, t2, func(ctx *Context) error {
		if ctx.Self() == "T1" {
			held = ctx
		}
		return nil
	})
	want := "core: Context for t!stx#1 used outside its frame"
	stale := func() (p any) {
		defer func() { p = recover() }()
		_ = held.Tx()
		return nil
	}
	if p := stale(); p != want {
		t.Errorf("held Context's Tx() outside any action panicked with %v, want %q", p, want)
	}
	var inside any
	var txCreated bool
	performPair(t, env, spec, t1, t2, func(ctx *Context) error {
		if ctx.Self() == "T1" {
			inside = stale()
			txCreated = ctx.f.tx != nil
		}
		return nil
	})
	if inside != want {
		t.Errorf("held Context's Tx() inside a later action panicked with %v, want %q", inside, want)
	}
	if txCreated {
		t.Errorf("the stale Tx() call gave the later action's frame a transaction")
	}
}

// TestNestedIdentifiersDistinctAndShared: two nested instances of one spec
// under one parent get distinct identifiers (#1, #2), and the threads of
// the instance share each identifier's string instead of building their
// own.
func TestNestedIdentifiersDistinctAndShared(t *testing.T) {
	env, rt := poolEnv(t)
	outer := poolSpec(t, "outer")
	inner := poolSpec(t, "inner")
	t1, t2 := poolThreads(t, env, rt)
	ids := [2][]string{}
	body := func(i int, role string) Body {
		return func(ctx *Context) error {
			ids[i] = append(ids[i], ctx.ActionID())
			for n := 0; n < 2; n++ {
				err := ctx.Enter(inner, role, RoleProgram{Body: func(c *Context) error {
					ids[i] = append(ids[i], c.ActionID())
					return nil
				}})
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	errs := make([]error, 2)
	env.Go(
		func() { errs[0] = t1.Perform(outer, "a", RoleProgram{Body: body(0, "a")}) },
		func() { errs[1] = t2.Perform(outer, "b", RoleProgram{Body: body(1, "b")}) },
	)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("perform: %v, %v", errs[0], errs[1])
	}
	want := []string{"t!outer#1", "t!outer#1/inner#1", "t!outer#1/inner#2"}
	for i := range ids {
		if !reflect.DeepEqual(ids[i], want) {
			t.Fatalf("T%d identifiers %q, want %q", i+1, ids[i], want)
		}
	}
	for j := range want {
		if unsafe.StringData(ids[0][j]) != unsafe.StringData(ids[1][j]) {
			t.Errorf("T1 and T2 hold separate copies of %s", want[j])
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
