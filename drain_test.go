package caaction_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"caaction"
)

func soloSpec(t *testing.T, thread string) *caaction.Spec {
	t.Helper()
	spec, err := caaction.NewSpec("solo").Role("only", thread).Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDrainWaitsForInflight pins the graceful-shutdown contract: Drain
// refuses new StartAction (and Thread) with ErrDraining, blocks until the
// in-flight action finishes, and only then returns — after which Close
// flips refusals to ErrSystemClosed.
func TestDrainWaitsForInflight(t *testing.T) {
	sys, err := caaction.New(caaction.WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	spec := soloSpec(t, "T1")

	gate := make(chan struct{})
	h, err := sys.StartAction(context.Background(), spec, map[string]caaction.RoleProgram{
		"only": {Body: func(ctx *caaction.Context) error { <-gate; return nil }},
	})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- sys.Drain(context.Background()) }()
	// Wait until the drain marker is visible, then probe the refusals.
	deadline := time.Now().Add(5 * time.Second)
	for !sys.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never set the draining marker")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := sys.StartAction(context.Background(), soloSpec(t, "T2"), map[string]caaction.RoleProgram{
		"only": {Body: func(ctx *caaction.Context) error { return nil }},
	}); !errors.Is(err, caaction.ErrDraining) {
		t.Fatalf("StartAction while draining = %v, want ErrDraining", err)
	}
	if _, err := sys.Thread("T3"); !errors.Is(err, caaction.ErrDraining) {
		t.Fatalf("Thread while draining = %v, want ErrDraining", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with the action still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate) // let the in-flight action finish
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the in-flight action finished")
	}
	h.WaitDone()
	if err := h.Err(); err != nil {
		t.Fatalf("in-flight action outcome = %v, want success across the drain", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StartAction(context.Background(), spec, map[string]caaction.RoleProgram{
		"only": {Body: func(ctx *caaction.Context) error { return nil }},
	}); !errors.Is(err, caaction.ErrSystemClosed) {
		t.Fatalf("StartAction after Close = %v, want ErrSystemClosed", err)
	}
}

// TestDrainContextCancel: a Drain whose context expires returns the typed
// interruption without waiting forever, leaving the in-flight work running.
func TestDrainContextCancel(t *testing.T) {
	sys, err := caaction.New(caaction.WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	gate := make(chan struct{})
	defer close(gate)
	_, err = sys.StartAction(context.Background(), soloSpec(t, "T1"), map[string]caaction.RoleProgram{
		"only": {Body: func(ctx *caaction.Context) error { <-gate; return nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := sys.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with expired ctx = %v, want DeadlineExceeded", err)
	}
}

// TestStartTagged pins caller-assigned instance tags: the tag becomes the
// handle id (and thus the wire prefix), and malformed tags are rejected.
func TestStartTagged(t *testing.T) {
	sys, err := caaction.New()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec := soloSpec(t, "T1")
	progs := map[string]caaction.RoleProgram{
		"only": {Body: func(ctx *caaction.Context) error { return nil }},
	}
	for _, bad := range []string{"", "a!b", "a/b", "a#1"} {
		if _, err := sys.StartTagged(context.Background(), bad, spec, progs); err == nil {
			t.Errorf("StartTagged(%q) succeeded, want tag rejection", bad)
		}
	}
	h, err := sys.StartTagged(context.Background(), "round-7", spec, progs)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != "round-7" {
		t.Fatalf("handle id = %q, want the assigned tag", h.ID())
	}
	sys.Wait()
	if err := h.Err(); err != nil {
		t.Fatalf("tagged action outcome = %v", err)
	}
}

// TestWithClusterValidation checks the option conflicts WithCluster
// documents.
func TestWithClusterValidation(t *testing.T) {
	local := func(string) bool { return true }
	resolve := func(string) (string, bool) { return "", false }
	cc := caaction.ClusterConfig{Local: local, Resolve: resolve}
	cases := []struct {
		name string
		opts []caaction.Option
	}{
		{"nil callbacks", []caaction.Option{caaction.WithCluster(caaction.ClusterConfig{})}},
		{"virtual time", []caaction.Option{caaction.WithCluster(cc), caaction.WithVirtualTime()}},
		{"custom clock", []caaction.Option{caaction.WithCluster(cc), caaction.WithClock(fakeClock{})}},
		{"peer", []caaction.Option{caaction.WithCluster(cc), caaction.WithPeer("T9", "127.0.0.1:1")}},
		{"sim transport", []caaction.Option{caaction.WithCluster(cc), caaction.WithSimTransport(0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if sys, err := caaction.New(tc.opts...); err == nil {
				_ = sys.Close()
				t.Fatalf("New(%s) succeeded, want option conflict", tc.name)
			}
		})
	}
}

// TestClusterTwoNodes runs one logical action across two Systems in cluster
// mode within this process — the in-process model of two canode daemons.
// Each node hosts one role under a shared driver-assigned tag; the entry
// barrier, message exchange and exit protocol all cross the node boundary
// over node-qualified TCP frames.
func TestClusterTwoNodes(t *testing.T) {
	var (
		mu    sync.Mutex
		table = map[string]string{} // thread → node data addr
	)
	resolve := func(thread string) (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		hp, ok := table[thread]
		return hp, ok
	}
	mkNode := func(hosted string) *caaction.System {
		sys, err := caaction.New(caaction.WithCluster(caaction.ClusterConfig{
			Local:   func(thread string) bool { return thread == hosted },
			Resolve: resolve,
		}))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		table[hosted] = sys.ClusterAddr()
		mu.Unlock()
		return sys
	}
	n1 := mkNode("T1")
	defer func() { _ = n1.Close() }()
	n2 := mkNode("T2")
	defer func() { _ = n2.Close() }()
	if n1.ClusterAddr() == "" || n1.Virtual() {
		t.Fatal("cluster node must have a data address and run on the real clock")
	}

	spec, err := caaction.NewSpec("xfer").
		Role("producer", "T1").
		Role("consumer", "T2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	const tag = "g1"
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Each node supplies only its local role's program; the driver hands
	// both the same tag so the two halves form one instance on the wire.
	h1, err := n1.StartTagged(ctx, tag, spec, map[string]caaction.RoleProgram{
		"producer": {Body: func(c *caaction.Context) error { return c.Send("consumer", "payload") }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := h1.Roles(); len(got) != 1 || got[0] != "producer" {
		t.Fatalf("node1 roles = %v, want just the locally-placed producer", got)
	}
	h2, err := n2.StartTagged(ctx, tag, spec, map[string]caaction.RoleProgram{
		"consumer": {Body: func(c *caaction.Context) error {
			v, err := c.Recv("producer")
			if err != nil {
				return err
			}
			if v != "payload" {
				t.Errorf("consumer received %v", v)
			}
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	h1.WaitDone()
	h2.WaitDone()
	if err := h1.Err(); err != nil {
		t.Errorf("producer node outcome: %v", err)
	}
	if err := h2.Err(); err != nil {
		t.Errorf("consumer node outcome: %v", err)
	}

	// A thread no node hosts is a typed routing failure, not a hang: the
	// spec references T9, which the resolver cannot place.
	orphan, err := caaction.NewSpec("orphan").Role("only", "T9").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n1.StartTagged(ctx, "g2", orphan, map[string]caaction.RoleProgram{
		"only": {Body: func(c *caaction.Context) error { return nil }},
	}); err == nil {
		t.Error("starting a role for an unhosted thread succeeded, want placement refusal")
	}
}

// fakeClock satisfies caaction.Clock just enough for option validation; it
// is never started because New rejects the combination first.
type fakeClock struct{ caaction.Clock }
