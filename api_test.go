package caaction_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"caaction"
)

// TestNewDefaults checks the documented zero-option behaviour: virtual
// time, sim transport, a fresh metrics set, no log.
func TestNewDefaults(t *testing.T) {
	sys, err := caaction.New()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	if !sys.Virtual() {
		t.Error("default system is not on the virtual clock")
	}
	if sys.Metrics() == nil {
		t.Error("default system has no metrics")
	}
	if sys.Log() != nil {
		t.Error("default system unexpectedly has a log")
	}
	if sys.Now() != 0 {
		t.Errorf("virtual clock started at %v, want 0", sys.Now())
	}
	if sys.Network() == nil {
		t.Error("default system has no network")
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []caaction.Option
		want error
	}{
		{"unknown resolver", []caaction.Option{caaction.WithResolver("nope")}, caaction.ErrUnknownResolver},
		{"unknown transport", []caaction.Option{caaction.WithTransport("nope")}, caaction.ErrUnknownTransport},
		{"nil metrics", []caaction.Option{caaction.WithMetrics(nil)}, nil},
		{"nil log", []caaction.Option{caaction.WithLog(nil)}, nil},
		{"nil clock", []caaction.Option{caaction.WithClock(nil)}, nil},
		{"nil network", []caaction.Option{caaction.WithNetwork(nil)}, nil},
		{"nil protocol", []caaction.Option{caaction.WithResolutionProtocol(nil)}, nil},
		{"negative signal timeout", []caaction.Option{caaction.WithSignalTimeout(-time.Second)}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := caaction.New(tc.opts...)
			if err == nil {
				t.Fatalf("New(%s) succeeded, want error", tc.name)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("New(%s) = %v, want errors.Is(err, %v)", tc.name, err, tc.want)
			}
		})
	}
}

func TestRegistries(t *testing.T) {
	for _, name := range []string{"coordinated", "cr86", "r96"} {
		p, err := caaction.Resolver(name)
		if err != nil {
			t.Fatalf("Resolver(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("Resolver(%q).Name() = %q", name, p.Name())
		}
	}
	for _, name := range []string{"sim", "tcp"} {
		if _, err := caaction.TransportByName(name); err != nil {
			t.Fatalf("TransportByName(%q): %v", name, err)
		}
	}
	found := map[string]bool{}
	for _, n := range caaction.Resolvers() {
		found[n] = true
	}
	if !found["coordinated"] || !found["cr86"] || !found["r96"] {
		t.Errorf("Resolvers() = %v, missing built-ins", caaction.Resolvers())
	}
}

func TestSpecBuilderValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*caaction.Spec, error)
		want  error
	}{
		{"empty name", func() (*caaction.Spec, error) {
			return caaction.NewSpec("").Role("r", "T1").Build()
		}, caaction.ErrSpecInvalid},
		{"no roles", func() (*caaction.Spec, error) {
			return caaction.NewSpec("a").Build()
		}, caaction.ErrSpecInvalid},
		{"duplicate role", func() (*caaction.Spec, error) {
			return caaction.NewSpec("a").Role("r", "T1").Role("r", "T2").Build()
		}, caaction.ErrSpecInvalid},
		{"thread bound twice", func() (*caaction.Spec, error) {
			return caaction.NewSpec("a").Role("r1", "T1").Role("r2", "T1").Build()
		}, caaction.ErrSpecInvalid},
		{"reserved exception id", func() (*caaction.Spec, error) {
			return caaction.NewSpec("a").Role("r", "T1").Exception(caaction.Undo).Build()
		}, nil},
		{"cyclic cover", func() (*caaction.Spec, error) {
			return caaction.NewSpec("a").Role("r", "T1").
				Cover("e1", "e2").Cover("e2", "e1").Build()
		}, nil},
		{"negative timing", func() (*caaction.Spec, error) {
			return caaction.NewSpec("a").Role("r", "T1").ResolutionCost(-time.Second).Build()
		}, caaction.ErrSpecInvalid},
		{"exception after UseGraph", func() (*caaction.Spec, error) {
			g, err := caaction.GenerateFullGraph("g", []caaction.Exception{"e1", "e2"})
			if err != nil {
				t.Fatal(err)
			}
			return caaction.NewSpec("a").Role("r", "T1").UseGraph(g).Exception("e3").Build()
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := tc.build()
			if err == nil {
				t.Fatalf("Build() = %+v, want error", spec)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("Build() = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

func TestSpecBuilderDefaults(t *testing.T) {
	// A spec with no declared exceptions still gets the universal root.
	spec, err := caaction.NewSpec("plain").Role("r", "T1").Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Graph.Root(); got != caaction.UniversalException {
		t.Errorf("root = %q, want universal", got)
	}
	// Declared exceptions hang under an automatic universal root.
	spec, err = caaction.NewSpec("rich").Role("r", "T1").
		Exception("e1").Cover("both", "e1", "e2").
		Signals("partial").
		ResolutionCost(time.Millisecond).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Graph.Root(); got != caaction.UniversalException {
		t.Errorf("root = %q, want universal", got)
	}
	if !spec.Graph.Covers("both", "e2") {
		t.Error("cover edge both→e2 missing")
	}
	if !spec.CanSignal("partial") || !spec.CanSignal(caaction.Undo) {
		t.Error("Signals not honoured")
	}
	if spec.Timing.Resolution != time.Millisecond {
		t.Errorf("Treso = %v", spec.Timing.Resolution)
	}
}

// TestEndToEnd runs a complete two-role action over the sim transport on
// virtual time: a raise, coordinated resolution, handler-based forward
// recovery and a successful synchronous exit.
func TestEndToEnd(t *testing.T) {
	metrics := &caaction.Metrics{}
	sys, err := caaction.New(
		caaction.WithVirtualTime(),
		caaction.WithSimTransport(5*time.Millisecond),
		caaction.WithResolver("coordinated"),
		caaction.WithMetrics(metrics),
	)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := caaction.NewSpec("transfer").
		Role("producer", "T1").
		Role("consumer", "T2").
		Exception("bad_checksum").
		Build()
	if err != nil {
		t.Fatal(err)
	}

	var handled []string
	handler := func(ctx *caaction.Context, resolved caaction.Exception, raised []caaction.Raised) error {
		handled = append(handled, ctx.Role()+":"+string(resolved))
		if ctx.Role() == "producer" {
			return ctx.Send("consumer", "retransmitted")
		}
		_, err := ctx.Recv("producer")
		return err
	}
	producer := caaction.RoleProgram{
		Body: func(ctx *caaction.Context) error {
			if err := ctx.Send("consumer", "corrupted"); err != nil {
				return err
			}
			return ctx.Compute(50 * time.Millisecond)
		},
		Handlers: map[caaction.Exception]caaction.Handler{"bad_checksum": handler},
	}
	consumer := caaction.RoleProgram{
		Body: func(ctx *caaction.Context) error {
			if _, err := ctx.Recv("producer"); err != nil {
				return err
			}
			return ctx.Raise("bad_checksum", "crc mismatch")
		},
		Handlers: map[caaction.Exception]caaction.Handler{"bad_checksum": handler},
	}

	t1, err := sys.Thread("T1")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := sys.Thread("T2")
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan error, 2)
	// One tracked root starts both roles, so the clock knows the second
	// before the first can block.
	sys.Go(func() {
		sys.Go(func() { results <- t2.Perform(context.Background(), spec, "consumer", consumer) })
		results <- t1.Perform(context.Background(), spec, "producer", producer)
	})
	sys.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Errorf("outcome: %v", err)
		}
	}
	if len(handled) != 2 {
		t.Errorf("handler runs = %v, want one per role", handled)
	}
	if got := metrics.Get("action.completions"); got != 2 {
		t.Errorf("action.completions = %d, want 2", got)
	}
	if metrics.Get("msg.Exception") == 0 || metrics.Get("msg.Commit") == 0 {
		t.Errorf("resolution messages missing: %v", metrics.Snapshot())
	}
	if sys.Now() == 0 {
		t.Error("virtual time did not advance")
	}
}

// TestTypedErrors checks the ErrSignalled sentinel and the AsSignalled /
// errors.As wrappers on a µ outcome.
func TestTypedErrors(t *testing.T) {
	sys, err := caaction.New()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := caaction.NewSpec("doomed").Role("solo", "T1").Exception("boom").Build()
	if err != nil {
		t.Fatal(err)
	}
	th, err := sys.Thread("T1")
	if err != nil {
		t.Fatal(err)
	}
	outcome := make(chan error, 1)
	sys.Go(func() {
		outcome <- th.Perform(context.Background(), spec, "solo", caaction.RoleProgram{
			Body: func(ctx *caaction.Context) error { return ctx.Raise("boom", "unhandled") },
		})
	})
	sys.Wait()
	err = <-outcome
	if !errors.Is(err, caaction.ErrSignalled) {
		t.Fatalf("errors.Is(%v, ErrSignalled) = false", err)
	}
	se, ok := caaction.AsSignalled(err)
	if !ok {
		t.Fatalf("AsSignalled(%v) = false", err)
	}
	if se.Exc != caaction.Undo {
		t.Errorf("signalled %q, want µ", se.Exc)
	}
	if !caaction.IsUndone(err) || caaction.IsFailed(err) {
		t.Error("IsUndone/IsFailed misclassified the outcome")
	}
	var viaAs *caaction.SignalledError
	if !errors.As(err, &viaAs) || viaAs.Spec != "doomed" {
		t.Errorf("errors.As recovered %+v", viaAs)
	}
}

// TestPerformCancellation cancels a context mid-body and expects the role
// to unwind through the cooperative interrupt path with a typed error.
func TestPerformCancellation(t *testing.T) {
	sys, err := caaction.New(caaction.WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := caaction.NewSpec("slow").Role("solo", "T1").Build()
	if err != nil {
		t.Fatal(err)
	}
	th, err := sys.Thread("T1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	outcome := make(chan error, 1)
	started := make(chan struct{})
	start := time.Now()
	sys.Go(func() {
		outcome <- th.Perform(ctx, spec, "solo", caaction.RoleProgram{
			Body: func(c *caaction.Context) error {
				close(started)                     // the body is provably running when we cancel
				return c.Compute(30 * time.Second) // far longer than the test runs
			},
		})
	})
	<-started
	cancel()
	sys.Wait()
	err = <-outcome
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if err == nil {
		t.Fatal("Perform returned nil after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(%v, context.Canceled) = false", err)
	}
	if !errors.Is(err, caaction.ErrThreadStopped) {
		t.Errorf("errors.Is(%v, ErrThreadStopped) = false", err)
	}
}

// TestPerformPreCancelled checks that an already-cancelled context never
// enters the action.
func TestPerformPreCancelled(t *testing.T) {
	sys, err := caaction.New(caaction.WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := caaction.NewSpec("never").Role("solo", "T1").Build()
	if err != nil {
		t.Fatal(err)
	}
	th, err := sys.Thread("T1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err = th.Perform(ctx, spec, "solo", caaction.RoleProgram{
		Body: func(c *caaction.Context) error { ran = true; return nil },
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Perform = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("body ran under a cancelled context")
	}
	if got := sys.Metrics().Get("action.entries"); got != 0 {
		t.Errorf("action.entries = %d, want 0", got)
	}
}

// TestTCPTransport runs a two-role action over the real TCP transport
// within one process, exercising the "tcp" registry entry end to end (on
// the binary wire codec).
func TestTCPTransport(t *testing.T) {
	sys, err := caaction.New(caaction.WithRealTime(), caaction.WithTCPTransport(""))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec, err := caaction.NewSpec("pair").
		Role("left", "T1").
		Role("right", "T2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	t1, err := sys.Thread("T1")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := sys.Thread("T2")
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan error, 2)
	sys.Go(func() {
		sys.Go(func() {
			results <- t2.Perform(context.Background(), spec, "right", caaction.RoleProgram{
				Body: func(ctx *caaction.Context) error {
					v, err := ctx.Recv("left")
					if err != nil {
						return err
					}
					if v != "ping" {
						t.Errorf("payload = %v", v)
					}
					return nil
				},
			})
		})
		results <- t1.Perform(context.Background(), spec, "left", caaction.RoleProgram{
			Body: func(ctx *caaction.Context) error { return ctx.Send("right", "ping") },
		})
	})
	sys.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Errorf("outcome: %v", err)
		}
	}
}

// TestSharedMetrics checks WithMetrics aggregation across systems.
func TestSharedMetrics(t *testing.T) {
	shared := &caaction.Metrics{}
	for i := 0; i < 2; i++ {
		sys, err := caaction.New(caaction.WithMetrics(shared))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := caaction.NewSpec("one").Role("solo", "T1").Build()
		if err != nil {
			t.Fatal(err)
		}
		th, err := sys.Thread("T1")
		if err != nil {
			t.Fatal(err)
		}
		sys.Go(func() {
			_ = th.Perform(context.Background(), spec, "solo", caaction.RoleProgram{
				Body: func(ctx *caaction.Context) error { return nil },
			})
		})
		sys.Wait()
	}
	if got := shared.Get("action.completions"); got != 2 {
		t.Errorf("shared action.completions = %d, want 2", got)
	}
}
