package atomicobj

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"caaction/internal/except"
	"caaction/internal/simenv"
)

func newReg(t *testing.T) (*Registry, *simenv.Env) {
	t.Helper()
	env := simenv.New()
	return NewRegistry(env.Clock), env
}

func TestDefineGetNames(t *testing.T) {
	reg, _ := newReg(t)
	if _, err := reg.Define("press", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Define("press", 1); !errors.Is(err, ErrDuplicateObject) {
		t.Fatalf("err = %v", err)
	}
	if _, err := reg.Get("press"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("nope"); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
	if n := reg.Names(); len(n) != 1 || n[0] != "press" {
		t.Fatalf("names = %v", n)
	}
}

func TestReadWriteCommit(t *testing.T) {
	reg, _ := newReg(t)
	o, _ := reg.Define("counter", 10)
	if got := o.Read("A"); got != 10 {
		t.Fatalf("read = %v", got)
	}
	o.Write("A", 11)
	o.Update("A", func(s any) any { return s.(int) + 1 })
	if err := o.Commit("A"); err != nil {
		t.Fatal(err)
	}
	if o.Peek() != 12 || o.Version() != 1 || o.Holder() != "" {
		t.Fatalf("state=%v version=%d holder=%q", o.Peek(), o.Version(), o.Holder())
	}
}

func TestUndoRestoresBeforeImage(t *testing.T) {
	reg, _ := newReg(t)
	o, _ := reg.Define("x", "original")
	o.Write("A", "dirty")
	o.Write("A", "dirtier") // before-image captured once, at first write
	if err := o.Undo("A"); err != nil {
		t.Fatal(err)
	}
	if o.Peek() != "original" {
		t.Fatalf("state = %v", o.Peek())
	}
	if o.Version() != 0 {
		t.Fatal("undo must not bump version")
	}
}

func TestUndoWithoutWriteIsNoop(t *testing.T) {
	reg, _ := newReg(t)
	o, _ := reg.Define("x", 5)
	_ = o.Read("A")
	if err := o.Undo("A"); err != nil {
		t.Fatal(err)
	}
	if o.Peek() != 5 {
		t.Fatalf("state = %v", o.Peek())
	}
}

func TestMarkDamagedForcesUndoFailure(t *testing.T) {
	reg, _ := newReg(t)
	o, _ := reg.Define("x", 1)
	o.Write("A", 2)
	if err := o.MarkDamaged("A"); err != nil {
		t.Fatal(err)
	}
	err := o.Undo("A")
	if !errors.Is(err, ErrUndoFailed) {
		t.Fatalf("err = %v", err)
	}
	// State left as-is (paper: effect may not have been undone) and the
	// object is released for other actions.
	if o.Peek() != 2 || o.Holder() != "" {
		t.Fatalf("state=%v holder=%q", o.Peek(), o.Holder())
	}
}

func TestCommitUndoRequireHolder(t *testing.T) {
	reg, _ := newReg(t)
	o, _ := reg.Define("x", 1)
	o.Write("A", 2)
	if err := o.Commit("B"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("err = %v", err)
	}
	if err := o.MarkDamaged("B"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("err = %v", err)
	}
}

func TestSameActionSharesLockAcrossRoles(t *testing.T) {
	reg, _ := newReg(t)
	o, _ := reg.Define("x", 0)
	o.Acquire("A") // role 1
	o.Acquire("A") // role 2: no deadlock, shared
	if err := o.TryAcquire("A"); err != nil {
		t.Fatal(err)
	}
	if err := o.TryAcquire("B"); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompetingActionsQueueFIFO(t *testing.T) {
	reg, env := newReg(t)
	o, _ := reg.Define("shared", []string(nil))
	appendName := func(action string) {
		o.Update(action, func(s any) any {
			return append(append([]string(nil), s.([]string)...), action)
		})
	}
	// A holds; B and C queue in order; completion order must be A, B, C.
	env.Go(
		func() {
			appendName("A")
			env.Clock.Sleep(30 * time.Millisecond)
			if err := o.Commit("A"); err != nil {
				t.Error(err)
			}
		},
		func() {
			env.Clock.Sleep(5 * time.Millisecond)
			appendName("B") // blocks until A commits
			if err := o.Commit("B"); err != nil {
				t.Error(err)
			}
		},
		func() {
			env.Clock.Sleep(10 * time.Millisecond)
			appendName("C") // blocks behind B
			if err := o.Commit("C"); err != nil {
				t.Error(err)
			}
		},
	)
	got := o.Peek().([]string)
	want := []string{"A", "B", "C"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if o.Version() != 3 {
		t.Fatalf("version = %d", o.Version())
	}
}

func TestHandoverAdmitsAllRolesOfNextAction(t *testing.T) {
	reg, env := newReg(t)
	o, _ := reg.Define("x", 0)
	o.Acquire("A")
	done := make(chan string, 2)
	env.Go(
		func() {
			o.Acquire("B") // role 1 of B queues
			done <- "b1"
		},
		func() {
			env.Clock.Sleep(time.Millisecond)
			o.Acquire("B") // role 2 of B queues
			done <- "b2"
		},
		func() {
			env.Clock.Sleep(10 * time.Millisecond)
			if err := o.Commit("A"); err != nil {
				t.Error(err)
			}
		},
	)
	if len(done) != 2 {
		t.Fatalf("only %d roles of B admitted", len(done))
	}
}

func TestInform(t *testing.T) {
	reg, _ := newReg(t)
	o, _ := reg.Define("x", 0)
	exc := except.Raised{ID: "vm_stop", Origin: "T1"}
	o.Inform("A", exc)
	got := o.Informed()
	if len(got) != 1 || got[0].ID != "vm_stop" {
		t.Fatalf("informed = %v", got)
	}
}

func TestCloneOption(t *testing.T) {
	reg, _ := newReg(t)
	type bal map[string]int
	o, _ := reg.Define("accounts", bal{"alice": 100},
		WithClone(func(s any) any {
			src := s.(bal)
			dst := make(bal, len(src))
			for k, v := range src {
				dst[k] = v
			}
			return dst
		}))
	o.Update("A", func(s any) any {
		m := s.(bal)
		m["alice"] -= 40 // mutates in place; clone protects the before-image
		return m
	})
	if err := o.Undo("A"); err != nil {
		t.Fatal(err)
	}
	if o.Peek().(bal)["alice"] != 100 {
		t.Fatalf("undo lost mutation protection: %v", o.Peek())
	}
}

func TestTxLifecycle(t *testing.T) {
	reg, _ := newReg(t)
	if _, err := reg.Define("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Define("b", 2); err != nil {
		t.Fatal(err)
	}
	tx := reg.Begin("act#1")
	if tx.Action() != "act#1" {
		t.Fatalf("action = %q", tx.Action())
	}
	if err := tx.Write("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("b", func(s any) any { return s.(int) * 10 }); err != nil {
		t.Fatal(err)
	}
	if v, err := tx.Read("a"); err != nil || v != 10 {
		t.Fatalf("read = %v, %v", v, err)
	}
	if got := tx.Used(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("used = %v", got)
	}
	tx.Inform(except.Raised{ID: "e1"})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	oa, _ := reg.Get("a")
	ob, _ := reg.Get("b")
	if oa.Peek() != 10 || ob.Peek() != 20 {
		t.Fatalf("states: %v %v", oa.Peek(), ob.Peek())
	}
	if len(oa.Informed()) != 1 {
		t.Fatal("inform not propagated")
	}
}

// TestTxInformAllocs: a completion walk reads the use set as kept, so a
// second Inform on the same Tx allocates nothing. (The object's own record
// of informed exceptions grows by doubling, less than once per call over
// the runs.)
func TestTxInformAllocs(t *testing.T) {
	reg, _ := newReg(t)
	for _, n := range []string{"c", "a", "b"} {
		if _, err := reg.Define(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	tx := reg.Begin("act#1")
	for _, n := range []string{"c", "a", "b", "a"} {
		if err := tx.Write(n, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := tx.Used(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("used = %v, want [a b c]", got)
	}
	exc := except.Raised{ID: "e1"}
	tx.Inform(exc)
	if n := testing.AllocsPerRun(100, func() { tx.Inform(exc) }); n != 0 {
		t.Fatalf("Inform allocates %.0f times, want 0", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestNilTxUsedNothing: the runtime creates a role's Tx on the body's first
// Context.Tx call, so a role that never asked completes through a nil Tx.
func TestNilTxUsedNothing(t *testing.T) {
	var tx *Tx
	tx.Inform(except.Raised{ID: "e1"})
	if err := tx.Commit(); err != nil {
		t.Fatalf("nil Tx Commit: %v", err)
	}
	if err := tx.Undo(); err != nil {
		t.Fatalf("nil Tx Undo: %v", err)
	}
}

func TestTxUndoAggregatesFailure(t *testing.T) {
	reg, _ := newReg(t)
	_, _ = reg.Define("good", 1)
	_, _ = reg.Define("bad", 1)
	tx := reg.Begin("act")
	_ = tx.Write("good", 2)
	_ = tx.Write("bad", 2)
	if err := tx.MarkDamaged("bad"); err != nil {
		t.Fatal(err)
	}
	err := tx.Undo()
	if !errors.Is(err, ErrUndoFailed) {
		t.Fatalf("err = %v", err)
	}
	good, _ := reg.Get("good")
	bad, _ := reg.Get("bad")
	if good.Peek() != 1 {
		t.Fatal("good object not restored")
	}
	if bad.Peek() != 2 {
		t.Fatal("damaged object should keep its state")
	}
}

func TestTxDoubleCompletionAcrossRoles(t *testing.T) {
	reg, _ := newReg(t)
	_, _ = reg.Define("x", 1)
	tx1 := reg.Begin("act")
	tx2 := reg.Begin("act")
	_ = tx1.Write("x", 5)
	if _, err := tx2.Read("x"); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// The second role's completion must tolerate the already-released
	// object.
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Undo(); err != nil {
		t.Fatal(err)
	}
}

func TestTxUnknownObject(t *testing.T) {
	reg, _ := newReg(t)
	tx := reg.Begin("act")
	if err := tx.Write("ghost", 1); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tx.Read("ghost"); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
	if err := tx.MarkDamaged("ghost"); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v", err)
	}
}

func TestManyCompetingActionsProperty(t *testing.T) {
	// Strict per-action locking must serialise arbitrary interleavings:
	// with K competing increment-actions the final count is exactly K.
	reg, env := newReg(t)
	o, _ := reg.Define("n", 0)
	const k = 40
	participants := make([]func(), k)
	for i := range participants {
		participants[i] = func() {
			action := fmt.Sprintf("act%d", i)
			env.Clock.Sleep(time.Duration(i%7) * time.Millisecond)
			v := o.Read(action).(int)
			env.Clock.Sleep(time.Millisecond)
			o.Write(action, v+1)
			if err := o.Commit(action); err != nil {
				t.Error(err)
			}
		}
	}
	env.Go(participants...)
	if o.Peek() != k {
		t.Fatalf("count = %v, want %d", o.Peek(), k)
	}
}
