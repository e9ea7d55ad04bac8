package core_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"caaction/internal/core"
	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/transport"
)

func TestContextAccessors(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "acc", graph3(t))
	var id, role, self, name string
	var round int
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {Body: func(ctx *core.Context) error {
			id, role, self = ctx.ActionID(), ctx.Role(), ctx.Self()
			name, round = ctx.SpecName(), ctx.Round()
			ctx.Logf("hello from %s", ctx.Self())
			if ctx.Now() < 0 {
				t.Error("negative Now")
			}
			if ctx.Tx() == nil {
				t.Error("nil Tx")
			}
			return nil
		}},
		"b": {Body: noopBody},
	})
	for th, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", th, err)
		}
	}
	if id != "t!acc#1" || role != "a" || self != "T1" || name != "acc" || round != 0 {
		t.Fatalf("accessors: %q %q %q %q %d", id, role, self, name, round)
	}
}

func TestCheckpointInterruption(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "chk", graph3(t))
	var rec sync.Map
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {
			Body:     func(ctx *core.Context) error { return ctx.Raise("e1", "") },
			Handlers: map[except.ID]core.Handler{"e1": handlerRecorder(&rec, "a")},
		},
		"b": {
			Body: func(ctx *core.Context) error {
				// A compute loop with explicit checkpoints: the paper's
				// deferred-processing style.
				for i := 0; i < 1000; i++ {
					e.Clock.Sleep(5 * time.Millisecond) // uninterruptible work chunk
					if err := ctx.Checkpoint(); err != nil {
						return err
					}
				}
				return nil
			},
			Handlers: map[except.ID]core.Handler{"e1": handlerRecorder(&rec, "b")},
		},
	})
	for th, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", th, err)
		}
	}
	if v, _ := rec.Load("b"); v != except.ID("e1") {
		t.Fatalf("b handled %v", v)
	}
	// Interrupted at a checkpoint long before the 5s of chunks completed.
	if e.Clock.Now() > time.Second {
		t.Fatalf("checkpoint interruption too late: %v", e.Clock.Now())
	}
}

func TestRecvTimeoutInsideAction(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "rto", graph3(t))
	var rtoErr error
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {Body: func(ctx *core.Context) error {
			_, rtoErr = ctx.RecvTimeout("b", 50*time.Millisecond)
			return nil
		}},
		"b": {Body: func(ctx *core.Context) error {
			return ctx.Compute(200 * time.Millisecond) // never sends
		}},
	})
	for th, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", th, err)
		}
	}
	if !errors.Is(rtoErr, core.ErrTimeout) {
		t.Fatalf("RecvTimeout error = %v", rtoErr)
	}
}

func TestSendRecvUnknownRole(t *testing.T) {
	e := newEnv(t, time.Millisecond, 2)
	spec := spec2(t, "unk", graph3(t))
	var sendErr, recvErr error
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {Body: func(ctx *core.Context) error {
			sendErr = ctx.Send("ghost", 1)
			_, recvErr = ctx.Recv("ghost")
			return nil
		}},
		"b": {Body: noopBody},
	})
	for th, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", th, err)
		}
	}
	if !errors.Is(sendErr, core.ErrUnknownRole) || !errors.Is(recvErr, core.ErrUnknownRole) {
		t.Fatalf("errors: %v / %v", sendErr, recvErr)
	}
}

func TestSingleRoleAction(t *testing.T) {
	// Degenerate but legal: one thread, one role — resolution is local,
	// exit needs no votes.
	e := newEnv(t, time.Millisecond, 1)
	g := graph3(t)
	spec := &core.Spec{
		Name:  "solo",
		Roles: []core.Role{{Name: "only", Thread: "T1"}},
		Graph: g,
	}
	var rec sync.Map
	res := e.run(spec, map[string]core.RoleProgram{
		"only": {
			Body:     func(ctx *core.Context) error { return ctx.Raise("e2", "solo fault") },
			Handlers: map[except.ID]core.Handler{"e2": handlerRecorder(&rec, "only")},
		},
	})
	if res["T1"] != nil {
		t.Fatalf("outcome: %v", res["T1"])
	}
	if v, _ := rec.Load("only"); v != except.ID("e2") {
		t.Fatalf("handled %v", v)
	}
}

func TestCorruptResolutionMessageDropped(t *testing.T) {
	// Corruption outside the signalling exchange is logged and dropped;
	// the §3.4 extension applies only to votes. With the raiser's
	// Exception corrupted once, FIFO retransmission is not modelled, so
	// the suspended peer learns of the exception only via the Commit...
	// which cannot exist. Instead corrupt a Suspended: the resolver can
	// still finish because the corrupting link is not the one it needs.
	e := newEnv(t, time.Millisecond, 3)
	spec := &core.Spec{
		Name: "corrupt",
		Roles: []core.Role{
			{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}, {Name: "c", Thread: "T3"},
		},
		Graph: graph3(t),
	}
	// Corrupt T1's Suspended to T2 only: T3 (the resolver) still receives
	// T1's state; T2 receives everything it needs (Exception from T3,
	// Commit from T3).
	corrupted := 0
	e.Net.SetFault(func(from, to string, msg protocol.Message) transport.Fault {
		if msg.Kind == protocol.KindSuspended && from == "T1" && to == "T2" && corrupted == 0 {
			corrupted++
			return transport.Corrupt
		}
		return transport.Deliver
	})
	var rec sync.Map
	h := func(k string) core.Handler { return handlerRecorder(&rec, k) }
	res := e.run(spec, map[string]core.RoleProgram{
		"a": {
			Body:     func(ctx *core.Context) error { return ctx.Compute(time.Second) },
			Handlers: map[except.ID]core.Handler{"e3": h("a")},
		},
		"b": {
			Body:     func(ctx *core.Context) error { return ctx.Compute(time.Second) },
			Handlers: map[except.ID]core.Handler{"e3": h("b")},
		},
		"c": {
			Body:     func(ctx *core.Context) error { return ctx.Raise("e3", "") },
			Handlers: map[except.ID]core.Handler{"e3": h("c")},
		},
	})
	for th, err := range res {
		if err != nil {
			t.Fatalf("%s: %v", th, err)
		}
	}
	if corrupted != 1 {
		t.Fatal("fault injector never fired")
	}
	for _, k := range []string{"a", "b", "c"} {
		if v, _ := rec.Load(k); v != except.ID("e3") {
			t.Fatalf("handler %s saw %v", k, v)
		}
	}
}

func TestNestedUndoneMappedExceptions(t *testing.T) {
	spec := spec2(t, "mapped", graph3(t))
	if spec.UndoneExc() != "mapped.undone" || spec.FailedExc() != "mapped.failed" {
		t.Fatalf("mapped ids: %q %q", spec.UndoneExc(), spec.FailedExc())
	}
	if !spec.CanSignal(except.Undo) || !spec.CanSignal(except.Failure) {
		t.Fatal("µ/ƒ must always be signallable")
	}
	if spec.CanSignal("random") {
		t.Fatal("undeclared ε signallable")
	}
}

func TestSignalledErrorHelpers(t *testing.T) {
	se := &core.SignalledError{Action: "a#1", Spec: "a", Exc: "eps"}
	if got, ok := core.Signalled(se); !ok || got != se {
		t.Fatal("Signalled failed on direct error")
	}
	wrapped := errorsJoin(se)
	if _, ok := core.Signalled(wrapped); !ok {
		t.Fatal("Signalled failed on wrapped error")
	}
	if core.IsUndone(se) || core.IsFailed(se) {
		t.Fatal("eps misclassified")
	}
	undo := &core.SignalledError{Exc: except.Undo}
	fail := &core.SignalledError{Exc: except.Failure}
	if !core.IsUndone(undo) || !core.IsFailed(fail) {
		t.Fatal("µ/ƒ classification wrong")
	}
	for _, e := range []*core.SignalledError{se, undo, fail} {
		if e.Error() == "" {
			t.Fatal("empty error string")
		}
	}
	if _, ok := core.Signalled(errors.New("plain")); ok {
		t.Fatal("plain error classified as signalled")
	}
}

func errorsJoin(err error) error {
	return &wrapErr{err}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }
