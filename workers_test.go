package caaction

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// commit3 is a 3-role action whose roles commit at once.
func commit3(t *testing.T, name string) (*Spec, map[string]RoleProgram) {
	t.Helper()
	spec, err := NewSpec(name).
		Role("a", name+"A").Role("b", name+"B").Role("c", name+"C").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ok := RoleProgram{Body: func(*Context) error { return nil }}
	return spec, map[string]RoleProgram{"a": ok, "b": ok, "c": ok}
}

func (rs *roleRunners) counts() (idle, spawned, peak int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.idle), rs.spawned, rs.peak
}

func runOne(t *testing.T, sys *System, spec *Spec, progs map[string]RoleProgram) {
	t.Helper()
	h, err := sys.StartAction(context.Background(), spec, progs)
	if err != nil {
		t.Fatal(err)
	}
	h.WaitDone()
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
}

// settleGoroutines polls until at most want goroutines exist and returns
// the last count.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// Back-to-back actions find the previous action's runners parked, so the
// whole sequence runs on one action's worth of goroutines.
func TestRunnersReusedAcrossSequentialActions(t *testing.T) {
	sys, err := New(WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec, progs := commit3(t, "seq")
	for i := 0; i < 200; i++ {
		runOne(t, sys, spec, progs)
	}
	if _, spawned, _ := sys.runners.counts(); spawned > 3 {
		t.Fatalf("200 sequential 3-role actions spawned %d runners, want <= 3", spawned)
	}
}

// A burst leaves at most its peak of running roles idle; a lone action
// afterwards trims the idle set to its own size; Close ends every runner.
func TestRunnersIdleBoundAndClose(t *testing.T) {
	base := runtime.NumGoroutine()
	sys, err := New(WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	spec, progs := commit3(t, "burst")
	const burst = 32
	hs := make([]*ActionHandle, burst)
	for i := range hs {
		if hs[i], err = sys.StartAction(context.Background(), spec, progs); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range hs {
		h.WaitDone()
		if err := h.Err(); err != nil {
			t.Fatal(err)
		}
	}
	idle, spawned, peak := sys.runners.counts()
	if peak > 3*burst || idle > peak || spawned > 3*burst {
		t.Fatalf("after a burst of %d: idle %d, spawned %d, peak %d; want idle <= peak <= %d and spawned <= %d",
			burst, idle, spawned, peak, 3*burst, 3*burst)
	}

	runOne(t, sys, spec, progs)
	if idle, _, _ = sys.runners.counts(); idle > 3 {
		t.Fatalf("a lone 3-role action left %d idle runners, want <= 3", idle)
	}
	if n := settleGoroutines(base + idle); n > base+idle {
		t.Errorf("quiet system: %d goroutines, want <= %d (%d before New, %d idle runners)", n, base+idle, base, idle)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("after Close: %d goroutines, want <= %d", n, base)
	}
}

// A role body that starts and waits on a nested action: the parent's and
// the child's roles are running together, so the nested roles' runners stay
// parked for the next round.
func TestRunnersNestedReuse(t *testing.T) {
	sys, err := New(WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	child, err := NewSpec("child").Role("x", "X").Role("y", "Y").Build()
	if err != nil {
		t.Fatal(err)
	}
	ok := RoleProgram{Body: func(*Context) error { return nil }}
	childProgs := map[string]RoleProgram{"x": ok, "y": ok}
	parent, err := NewSpec("parent").Role("p", "P").Build()
	if err != nil {
		t.Fatal(err)
	}
	parentProgs := map[string]RoleProgram{"p": {Body: func(*Context) error {
		h, err := sys.StartAction(context.Background(), child, childProgs)
		if err != nil {
			return err
		}
		h.WaitDone()
		return h.Err()
	}}}
	for i := 0; i < 50; i++ {
		runOne(t, sys, parent, parentProgs)
	}
	if _, spawned, _ := sys.runners.counts(); spawned > 3 {
		t.Fatalf("50 nested rounds spawned %d runners, want <= 3", spawned)
	}
}

// System.Wait returns only after every role has finished — also when the
// instances' endpoints close before their roles unwind (cancellation), and
// although runners are goroutines Wait otherwise ignores.
func TestWaitCoversRunnerRoles(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"virtual", nil},
		{"real", []Option{WithRealTime()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = sys.Close() }()
			spec, progs := commit3(t, "wait")
			slow := RoleProgram{Body: func(ctx *Context) error { return ctx.Compute(time.Millisecond) }}
			progs["b"] = slow
			const n = 20
			hs := make([]*ActionHandle, n)
			// Started from a tracked goroutine that returns at once: Wait
			// must still cover the roles.
			sys.Go(func() {
				for i := range hs {
					if hs[i], err = sys.StartAction(context.Background(), spec, progs); err != nil {
						return
					}
				}
			})
			sys.Wait()
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range hs {
				if !h.Done() || len(h.Results()) != 3 {
					t.Fatalf("action %d: Wait returned with %d of 3 roles finished", i, len(h.Results()))
				}
			}
		})
	}
	t.Run("cancelled on the real clock", func(t *testing.T) {
		sys, err := New(WithRealTime())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = sys.Close() }()
		spec, progs := commit3(t, "cancel")
		started := make(chan struct{}, 3)
		stuck := RoleProgram{Body: func(ctx *Context) error {
			started <- struct{}{}
			return ctx.Compute(time.Hour)
		}}
		progs["a"], progs["b"], progs["c"] = stuck, stuck, stuck
		ctx, cancel := context.WithCancel(context.Background())
		h, err := sys.StartAction(ctx, spec, progs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			<-started
		}
		cancel()
		sys.Wait()
		res := h.Results()
		if !h.Done() || len(res) != 3 {
			t.Fatalf("Wait returned with %d of 3 roles finished", len(res))
		}
		for role, err := range res {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("role %s: %v, want context.Canceled", role, err)
			}
		}
	})
}
