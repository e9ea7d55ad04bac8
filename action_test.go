package caaction_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"caaction"
)

// pingPongSpec is a two-role action used by the concurrency tests; the
// producer sends one message the consumer must receive.
func pingPongSpec(t *testing.T) (*caaction.Spec, map[string]caaction.RoleProgram) {
	t.Helper()
	spec, err := caaction.NewSpec("pingpong").
		Role("producer", "T1").
		Role("consumer", "T2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]caaction.RoleProgram{
		"producer": {Body: func(ctx *caaction.Context) error {
			return ctx.Send("consumer", "ping")
		}},
		"consumer": {Body: func(ctx *caaction.Context) error {
			v, err := ctx.Recv("producer")
			if err != nil {
				return err
			}
			if v != "ping" {
				return fmt.Errorf("payload %v", v)
			}
			return nil
		}},
	}
	return spec, progs
}

// TestStartActionConcurrentInstances runs many instances of the SAME spec —
// same action names, same thread bindings — concurrently on one System over
// the shared sim transport, which is exactly what the mux layer exists for.
func TestStartActionConcurrentInstances(t *testing.T) {
	sys, err := caaction.New()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec, progs := pingPongSpec(t)

	const n = 50
	handles := make([]*caaction.ActionHandle, n)
	ids := map[string]bool{}
	for i := range handles {
		h, err := sys.StartAction(context.Background(), spec, progs)
		if err != nil {
			t.Fatalf("StartAction %d: %v", i, err)
		}
		if ids[h.ID()] {
			t.Fatalf("duplicate instance tag %q", h.ID())
		}
		ids[h.ID()] = true
		handles[i] = h
	}
	sys.Wait()
	for i, h := range handles {
		if !h.Done() {
			t.Fatalf("instance %d not done after Wait", i)
		}
		if err := h.Err(); err != nil {
			t.Errorf("instance %d: %v", i, err)
		}
	}
	if got := sys.Metrics().Get("action.completions"); got != 2*n {
		t.Errorf("action.completions = %d, want %d", got, 2*n)
	}
}

// TestStartActionWaitFromTrackedGoroutine drives actions from a tracked
// driver goroutine using ActionHandle.Wait — the load-harness pattern —
// including nested waits while other instances are in flight.
func TestStartActionWaitFromTrackedGoroutine(t *testing.T) {
	sys, err := caaction.New(caaction.WithSimTransport(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec, progs := pingPongSpec(t)

	var sequentialErr, overlapErr error
	// One tracked root starts both drivers, so the clock knows the second
	// before the first can block.
	sys.Go(func() {
		sys.Go(func() {
			// Overlapping: a second driver keeps its own instances in flight.
			var hs []*caaction.ActionHandle
			for i := 0; i < 5; i++ {
				h, err := sys.StartAction(context.Background(), spec, progs)
				if err != nil {
					overlapErr = err
					return
				}
				hs = append(hs, h)
			}
			for _, h := range hs {
				h.Wait()
				if err := h.Err(); err != nil && overlapErr == nil {
					overlapErr = err
				}
			}
		})
		sys.Go(func() {
			// Sequential: start, wait, start again (tag reuse GC path).
			for i := 0; i < 3; i++ {
				h, err := sys.StartAction(context.Background(), spec, progs)
				if err != nil {
					sequentialErr = err
					return
				}
				for role, err := range h.Wait() {
					if err != nil {
						sequentialErr = fmt.Errorf("%s: %w", role, err)
					}
				}
			}
		})
	})
	sys.Wait()
	if sequentialErr != nil {
		t.Errorf("sequential driver: %v", sequentialErr)
	}
	if overlapErr != nil {
		t.Errorf("overlapping driver: %v", overlapErr)
	}
}

// TestStartActionExceptionalOutcome checks per-role outcomes of an instance
// whose resolution ends in a signalled exception.
func TestStartActionExceptionalOutcome(t *testing.T) {
	sys, err := caaction.New()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec, err := caaction.NewSpec("doomed").
		Role("left", "T1").
		Role("right", "T2").
		Exception("boom").
		Signals("boom").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]caaction.RoleProgram{
		"left":  {Body: func(ctx *caaction.Context) error { return ctx.Raise("boom", "kaboom") }},
		"right": {Body: func(ctx *caaction.Context) error { return ctx.Compute(time.Second) }},
	}
	h, err := sys.StartAction(context.Background(), spec, progs)
	if err != nil {
		t.Fatal(err)
	}
	sys.Wait()
	for role, rerr := range h.Results() {
		se, ok := caaction.AsSignalled(rerr)
		if !ok || se.Exc != "boom" {
			t.Errorf("role %s outcome %v, want signalled boom", role, rerr)
		}
		if !strings.HasPrefix(se.Action, h.ID()+"!") {
			t.Errorf("action id %q does not carry instance tag %q", se.Action, h.ID())
		}
	}
	if err := h.Err(); !errors.Is(err, caaction.ErrSignalled) {
		t.Errorf("Err() = %v, want ErrSignalled match", err)
	}
}

// TestStartActionAlongsideThreadPerform checks that System.Thread and
// StartAction coexist on one System on disjoint thread addresses.
func TestStartActionAlongsideThreadPerform(t *testing.T) {
	sys, err := caaction.New()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec, progs := pingPongSpec(t)

	soloSpec, err := caaction.NewSpec("solo").Role("only", "S1").Build()
	if err != nil {
		t.Fatal(err)
	}
	th, err := sys.Thread("S1")
	if err != nil {
		t.Fatal(err)
	}
	soloOut := make(chan error, 1)
	sys.Go(func() {
		soloOut <- th.Perform(context.Background(), soloSpec, "only", caaction.RoleProgram{
			Body: func(ctx *caaction.Context) error { return ctx.Compute(time.Millisecond) },
		})
	})
	h, err := sys.StartAction(context.Background(), spec, progs)
	if err != nil {
		t.Fatal(err)
	}
	sys.Wait()
	if err := <-soloOut; err != nil {
		t.Errorf("legacy Perform alongside StartAction: %v", err)
	}
	if err := h.Err(); err != nil {
		t.Errorf("StartAction alongside legacy Perform: %v", err)
	}
}

// TestThreadSharesAddressesWithStartAction runs a System.Thread action and a
// StartAction instance of the same spec on the same thread addresses at the
// same time. System.Thread is a role of one instance on the System's own
// demultiplexer, so the two share T1 and T2 instead of both binding them,
// and both commit.
func TestThreadSharesAddressesWithStartAction(t *testing.T) {
	sys, err := caaction.New()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec, progs := pingPongSpec(t)
	// Each role computes first, so the two actions are in flight together.
	const work = 10 * time.Millisecond
	slow := make(map[string]caaction.RoleProgram, len(progs))
	for role, p := range progs {
		body := p.Body
		slow[role] = caaction.RoleProgram{Body: func(ctx *caaction.Context) error {
			if err := ctx.Compute(work); err != nil {
				return err
			}
			return body(ctx)
		}}
	}
	t1, err := sys.Thread("T1")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := sys.Thread("T2")
	if err != nil {
		t.Fatal(err)
	}
	var h *caaction.ActionHandle
	var startErr error
	threadOut := make(chan error, 2)
	// One tracked root starts everything, so the clock knows every role
	// before the first can block.
	sys.Go(func() {
		h, startErr = sys.StartAction(context.Background(), spec, slow)
		sys.Go(func() { threadOut <- t2.Perform(context.Background(), spec, "consumer", slow["consumer"]) })
		threadOut <- t1.Perform(context.Background(), spec, "producer", slow["producer"])
	})
	sys.Wait()
	if startErr != nil {
		t.Fatalf("StartAction on the threads' addresses: %v", startErr)
	}
	for i := 0; i < 2; i++ {
		if err := <-threadOut; err != nil {
			t.Errorf("System.Thread role: %v", err)
		}
	}
	if err := h.Err(); err != nil {
		t.Errorf("StartAction instance: %v", err)
	}
	if got := sys.Metrics().Get("action.completions"); got != 4 {
		t.Errorf("action.completions = %d, want 4 (two roles of each action)", got)
	}
	if now := sys.Now(); now >= 2*work {
		t.Errorf("both actions took %v, want under %v: they did not run concurrently", now, 2*work)
	}
}

// TestStartActionCancellation cancels an in-flight instance and expects
// every role to unwind with an error matching both ErrThreadStopped and the
// context cause.
func TestStartActionCancellation(t *testing.T) {
	sys, err := caaction.New(caaction.WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec, err := caaction.NewSpec("slow").
		Role("left", "T1").
		Role("right", "T2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 2)
	body := func(ctx *caaction.Context) error {
		started <- struct{}{}
		return ctx.Compute(30 * time.Second)
	}
	progs := map[string]caaction.RoleProgram{"left": {Body: body}, "right": {Body: body}}

	ctx, cancel := context.WithCancel(context.Background())
	h, err := sys.StartAction(ctx, spec, progs)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	<-started
	cancel()
	sys.Wait()
	for role, rerr := range h.Results() {
		if !errors.Is(rerr, caaction.ErrThreadStopped) {
			t.Errorf("role %s: %v does not match ErrThreadStopped", role, rerr)
		}
		if !errors.Is(rerr, context.Canceled) {
			t.Errorf("role %s: %v does not match context.Canceled", role, rerr)
		}
	}
}

// TestStartActionErrorPaths is the table of facade misuse cases.
func TestStartActionErrorPaths(t *testing.T) {
	spec, progs := pingPongSpec(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name  string
		start func(sys *caaction.System) error
		want  error
	}{
		{"nil spec", func(sys *caaction.System) error {
			_, err := sys.StartAction(context.Background(), nil, progs)
			return err
		}, nil},
		{"missing role program", func(sys *caaction.System) error {
			_, err := sys.StartAction(context.Background(), spec,
				map[string]caaction.RoleProgram{"producer": progs["producer"]})
			return err
		}, caaction.ErrBodyRequired},
		{"nil body", func(sys *caaction.System) error {
			bad := map[string]caaction.RoleProgram{"producer": progs["producer"], "consumer": {}}
			_, err := sys.StartAction(context.Background(), spec, bad)
			return err
		}, caaction.ErrBodyRequired},
		{"unknown role key", func(sys *caaction.System) error {
			bad := map[string]caaction.RoleProgram{
				"producer": progs["producer"], "consumer": progs["consumer"],
				"ghost": progs["producer"],
			}
			_, err := sys.StartAction(context.Background(), spec, bad)
			return err
		}, caaction.ErrUnknownRole},
		{"invalid spec", func(sys *caaction.System) error {
			bad := &caaction.Spec{Name: "x"}
			_, err := sys.StartAction(context.Background(), bad, nil)
			return err
		}, caaction.ErrSpecInvalid},
		{"pre-cancelled context", func(sys *caaction.System) error {
			_, err := sys.StartAction(cancelled, spec, progs)
			return err
		}, context.Canceled},
		{"after Close", func(sys *caaction.System) error {
			if err := sys.Close(); err != nil {
				return err
			}
			_, err := sys.StartAction(context.Background(), spec, progs)
			return err
		}, caaction.ErrSystemClosed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := caaction.New()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = sys.Close() }()
			err = tc.start(sys)
			if err == nil {
				t.Fatal("StartAction succeeded, want error")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want errors.Is(err, %v)", err, tc.want)
			}
			// Misuse must not leak mux state: a well-formed instance still
			// runs afterwards (skip when the case closed the system).
			if tc.name == "after Close" {
				return
			}
			h, err := sys.StartAction(context.Background(), spec, progs)
			if err != nil {
				t.Fatalf("clean StartAction after misuse: %v", err)
			}
			sys.Wait()
			if err := h.Err(); err != nil {
				t.Errorf("clean instance after misuse: %v", err)
			}
		})
	}
}

// TestThreadAfterClose pins the ErrSystemClosed contract for System.Thread
// too.
func TestThreadAfterClose(t *testing.T) {
	sys, err := caaction.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Thread("T1"); !errors.Is(err, caaction.ErrSystemClosed) {
		t.Errorf("Thread after Close = %v, want ErrSystemClosed", err)
	}
}

// TestSpecNameReservedCharacters pins the wire-format guard: spec names may
// not contain the action-identifier separators.
func TestSpecNameReservedCharacters(t *testing.T) {
	for _, name := range []string{"a!b", "a/b"} {
		_, err := caaction.NewSpec(name).Role("r", "T1").Build()
		if !errors.Is(err, caaction.ErrSpecInvalid) {
			t.Errorf("NewSpec(%q).Build() = %v, want ErrSpecInvalid", name, err)
		}
	}
}

// TestOptionConflicts pins the conflicting-option errors from New.
func TestOptionConflicts(t *testing.T) {
	cases := []struct {
		name string
		opts []caaction.Option
	}{
		{"network plus named transport", []caaction.Option{
			caaction.WithNetwork(mustNetwork(t)),
			caaction.WithTransport("sim"),
		}},
		{"network plus sim transport", []caaction.Option{
			caaction.WithSimTransport(0),
			caaction.WithNetwork(mustNetwork(t)),
		}},
		{"protocol plus resolver name", []caaction.Option{
			caaction.WithResolutionProtocol(caaction.Coordinated),
			caaction.WithResolver("cr86"),
		}},
		{"network plus jitter", []caaction.Option{
			caaction.WithNetwork(mustNetwork(t)),
			caaction.WithJitter(time.Millisecond, 1),
		}},
		{"network plus peer", []caaction.Option{
			caaction.WithNetwork(mustNetwork(t)),
			caaction.WithPeer("T1", "127.0.0.1:9"),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := caaction.New(tc.opts...); err == nil {
				t.Error("New accepted conflicting options")
			}
		})
	}
}

// TestRegistryReplacement pins the documented replace semantics of
// registering an existing name, and that lookups observe the replacement.
func TestRegistryReplacement(t *testing.T) {
	caaction.RegisterResolver("custom-test-resolver", caaction.R96)
	p, err := caaction.Resolver("custom-test-resolver")
	if err != nil || p.Name() != "r96" {
		t.Fatalf("custom resolver lookup = %v, %v", p, err)
	}
	caaction.RegisterResolver("custom-test-resolver", caaction.CR86)
	p, err = caaction.Resolver("custom-test-resolver")
	if err != nil || p.Name() != "cr86" {
		t.Fatalf("replaced resolver lookup = %v, %v (replace semantics broken)", p, err)
	}

	called := false
	caaction.RegisterTransport("custom-test-transport", func(env caaction.TransportEnv) (caaction.Network, error) {
		called = true
		factory, err := caaction.TransportByName("sim")
		if err != nil {
			return nil, err
		}
		return factory(env)
	})
	sys, err := caaction.New(caaction.WithTransport("custom-test-transport"))
	if err != nil {
		t.Fatalf("custom transport: %v", err)
	}
	_ = sys.Close()
	if !called {
		t.Error("custom transport factory never invoked")
	}
}

func mustNetwork(t *testing.T) caaction.Network {
	t.Helper()
	sys, err := caaction.New()
	if err != nil {
		t.Fatal(err)
	}
	return sys.Network()
}

// TestStartActionRunnersVirtualTime runs many instances back to back on
// the role runners under the deterministic virtual clock: dispatch to
// parked runners, daemon-goroutine time advancement, handle completion and
// System.Wait (which must not wait for the idle runners) all have to
// cooperate.
func TestStartActionRunnersVirtualTime(t *testing.T) {
	sys, err := caaction.New()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec, progs := pingPongSpec(t)

	const n = 40
	results := make(chan error, n)
	sys.Go(func() {
		for i := 0; i < n; i++ {
			h, err := sys.StartAction(context.Background(), spec, progs)
			if err != nil {
				results <- err
				continue
			}
			h.WaitDone()
			results <- h.Err()
		}
	})
	sys.Wait() // must return despite the idle runners
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
}

// TestStartActionRunnersFloodWithNested floods the runners with many more
// concurrent actions than there are idle runners. StartAction never waits
// for a runner — a miss spawns one — so everything completes, including
// role bodies that start and wait on a further action while their own
// runner is busy, the shape that deadlocks a pool that queues for
// capacity.
func TestStartActionRunnersFloodWithNested(t *testing.T) {
	sys, err := caaction.New(caaction.WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec, progs := pingPongSpec(t)

	childSpec, err := caaction.NewSpec("nestedload").
		Role("x", "N1").
		Role("y", "N2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	childProgs := map[string]caaction.RoleProgram{
		"x": {Body: func(ctx *caaction.Context) error { return nil }},
		"y": {Body: func(ctx *caaction.Context) error { return nil }},
	}
	// Parent roles start and wait on a child action from inside the body.
	parentSpec, err := caaction.NewSpec("parentload").
		Role("p", "P1").
		Role("q", "P2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	parentProgs := map[string]caaction.RoleProgram{
		"p": {Body: func(ctx *caaction.Context) error {
			ch, err := sys.StartAction(context.Background(), childSpec, childProgs)
			if err != nil {
				return err
			}
			ch.WaitDone()
			return ch.Err()
		}},
		"q": {Body: func(ctx *caaction.Context) error { return nil }},
	}

	const n = 30
	errs := make(chan error, 2*n)
	// One tracked root starts every driver.
	sys.Go(func() {
		for i := 0; i < n; i++ {
			sys.Go(func() {
				h, err := sys.StartAction(context.Background(), spec, progs)
				if err != nil {
					errs <- err
					return
				}
				h.WaitDone()
				errs <- h.Err()
			})
			sys.Go(func() {
				h, err := sys.StartAction(context.Background(), parentSpec, parentProgs)
				if err != nil {
					errs <- err
					return
				}
				h.WaitDone()
				errs <- h.Err()
			})
		}
	})
	for i := 0; i < 2*n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	sys.Wait()
}

// TestStartActionRunnersSpawnOnMiss: an action with more roles than there
// are idle runners takes the idle ones and spawns the rest, instead of
// waiting for runners to come free.
func TestStartActionRunnersSpawnOnMiss(t *testing.T) {
	sys, err := caaction.New()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	narrow, narrowProgs := pingPongSpec(t)
	wide, err := caaction.NewSpec("wide").
		Role("r1", "W1").Role("r2", "W2").Role("r3", "W3").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]caaction.RoleProgram{
		"r1": {Body: func(ctx *caaction.Context) error { return nil }},
		"r2": {Body: func(ctx *caaction.Context) error { return nil }},
		"r3": {Body: func(ctx *caaction.Context) error { return nil }},
	}
	var herr error
	sys.Go(func() {
		// Two runners park after the narrow action; the wide one needs three.
		for _, a := range []struct {
			spec  *caaction.Spec
			progs map[string]caaction.RoleProgram
		}{{narrow, narrowProgs}, {wide, progs}} {
			h, err := sys.StartAction(context.Background(), a.spec, a.progs)
			if err != nil {
				herr = err
				return
			}
			h.WaitDone()
			if herr = h.Err(); herr != nil {
				return
			}
		}
	})
	sys.Wait()
	if herr != nil {
		t.Fatalf("3-role action after a 2-role one: %v", herr)
	}
}

// TestStartActionRunnersCancellation: context cancellation must keep
// working when roles run on reused runners, and the runners must survive
// the cancelled action and serve the next one.
func TestStartActionRunnersCancellation(t *testing.T) {
	sys, err := caaction.New(caaction.WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	// Warm runners first, so the cancelled action runs on reused ones.
	spec0, progs0 := pingPongSpec(t)
	h0, err := sys.StartAction(context.Background(), spec0, progs0)
	if err != nil {
		t.Fatal(err)
	}
	h0.WaitDone()
	spec, err := caaction.NewSpec("stuck").
		Role("r1", "C1").Role("r2", "C2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]caaction.RoleProgram{
		"r1": {Body: func(ctx *caaction.Context) error { return ctx.Compute(time.Hour) }},
		"r2": {Body: func(ctx *caaction.Context) error { return ctx.Compute(time.Hour) }},
	}
	ctx, cancel := context.WithCancel(context.Background())
	h, err := sys.StartAction(ctx, spec, progs)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for role, rerr := range h.Wait() {
		if !errors.Is(rerr, caaction.ErrThreadStopped) || !errors.Is(rerr, context.Canceled) {
			t.Errorf("role %s: %v, want ErrThreadStopped and context.Canceled", role, rerr)
		}
	}
	// The runners must still serve fresh work after the cancellation.
	spec2, progs2 := pingPongSpec(t)
	h2, err := sys.StartAction(context.Background(), spec2, progs2)
	if err != nil {
		t.Fatal(err)
	}
	h2.WaitDone()
	if err := h2.Err(); err != nil {
		t.Fatalf("action after cancellation: %v", err)
	}
}

// TestEventLoopKnobs runs the same real-clock action under both delivery
// models — the default inline lane and the queue-per-thread fallback
// (WithoutInlineDelivery) — and expects identical outcomes: the knob tunes
// execution, never semantics.
func TestEventLoopKnobs(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []caaction.Option
	}{
		{"inline lane (default)", nil},
		{"queue per thread", []caaction.Option{caaction.WithoutInlineDelivery()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := caaction.New(append([]caaction.Option{caaction.WithRealTime()}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = sys.Close() }()
			for i := 0; i < 3; i++ {
				spec, progs := pingPongSpec(t)
				h, err := sys.StartAction(context.Background(), spec, progs)
				if err != nil {
					t.Fatal(err)
				}
				h.WaitDone()
				if err := h.Err(); err != nil {
					t.Fatalf("%s, action %d: %v", tc.name, i, err)
				}
			}
		})
	}
}
