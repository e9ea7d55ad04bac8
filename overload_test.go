package caaction_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"caaction"
)

// TestOverloadedErrorIdentity pins the typed-rejection contract: every
// admission refusal is a *OverloadedError matching ErrOverloaded under
// errors.Is and recoverable with errors.As, carrying the budget that
// refused (and the tenant, for per-tenant refusals).
func TestOverloadedErrorIdentity(t *testing.T) {
	global := &caaction.OverloadedError{Limit: 3}
	if !errors.Is(global, caaction.ErrOverloaded) {
		t.Fatal("errors.Is(global refusal, ErrOverloaded) = false")
	}
	tenant := &caaction.OverloadedError{Limit: 1, Tenant: "acme"}
	if !errors.Is(tenant, caaction.ErrOverloaded) {
		t.Fatal("errors.Is(tenant refusal, ErrOverloaded) = false")
	}
	var oe *caaction.OverloadedError
	if !errors.As(fmtWrap(tenant), &oe) || oe.Limit != 1 || oe.Tenant != "acme" {
		t.Fatalf("errors.As recovered %+v", oe)
	}
	if !strings.Contains(tenant.Error(), "acme") {
		t.Fatalf("tenant refusal message %q does not name the tenant", tenant.Error())
	}
}

func fmtWrap(err error) error { return errors.Join(errors.New("outer"), err) }

// gatedAction starts a one-role action whose body blocks on the returned
// channel, then finishes with the error fin returns.
func gatedAction(t *testing.T, sys *caaction.System, thread string, fin func(*caaction.Context) error) (*caaction.ActionHandle, chan struct{}) {
	t.Helper()
	spec, err := caaction.NewSpec("gated").Role("only", thread).Exception("boom").Build()
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	h, err := sys.StartAction(context.Background(), spec, map[string]caaction.RoleProgram{
		"only": {Body: func(ctx *caaction.Context) error {
			<-gate
			return fin(ctx)
		}},
	})
	if err != nil {
		t.Fatalf("gated action did not start: %v", err)
	}
	return h, gate
}

// waitAdmitted polls StartAction until the admission budget readmits,
// proving the previous occupant released its slot.
func waitAdmitted(t *testing.T, sys *caaction.System, thread string) {
	t.Helper()
	spec, err := caaction.NewSpec("probe").Role("only", thread).Build()
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]caaction.RoleProgram{
		"only": {Body: func(ctx *caaction.Context) error { return nil }},
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := sys.StartAction(context.Background(), spec, progs)
		if err == nil {
			h.WaitDone()
			return
		}
		if !errors.Is(err, caaction.ErrOverloaded) {
			t.Fatalf("probe start: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("budget never released")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionBudgetReleasedOnEveryOutcome exhausts a WithMaxInFlight(1)
// budget with one in-flight action per outcome shape — clean commit,
// exceptional signal, plain body error — and checks that (a) the next
// start is refused with the typed overload error and (b) the slot is
// released once the occupant finishes, whatever way it finished.
func TestAdmissionBudgetReleasedOnEveryOutcome(t *testing.T) {
	outcomes := []struct {
		name string
		fin  func(*caaction.Context) error
	}{
		{"commit", func(ctx *caaction.Context) error { return nil }},
		{"signal", func(ctx *caaction.Context) error { return ctx.Raise("boom", "overload test") }},
		{"error", func(ctx *caaction.Context) error { return errors.New("body failure") }},
	}
	for _, tc := range outcomes {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := caaction.New(caaction.WithRealTime(), caaction.WithMaxInFlight(1))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = sys.Close() }()

			h, gate := gatedAction(t, sys, "T1", tc.fin)
			// Budget exhausted: a second start and a new thread both refuse.
			_, err = sys.StartAction(context.Background(), soloSpec(t, "T2"), map[string]caaction.RoleProgram{
				"only": {Body: func(ctx *caaction.Context) error { return nil }},
			})
			var oe *caaction.OverloadedError
			if !errors.Is(err, caaction.ErrOverloaded) || !errors.As(err, &oe) || oe.Limit != 1 {
				t.Fatalf("start past budget = %v, want *OverloadedError{Limit: 1}", err)
			}
			if _, err := sys.Thread("T3"); !errors.Is(err, caaction.ErrOverloaded) {
				t.Fatalf("Thread past budget = %v, want ErrOverloaded", err)
			}

			close(gate)
			h.WaitDone()
			waitAdmitted(t, sys, "T2")
		})
	}
}

// TestAdmissionBudgetReleasedOnCancel is the ctx-cancel leg: an action
// unwound by context cancellation must release its admission slot like any
// other outcome.
func TestAdmissionBudgetReleasedOnCancel(t *testing.T) {
	sys, err := caaction.New(caaction.WithRealTime(), caaction.WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	h, err := sys.StartAction(ctx, soloSpec(t, "T1"), map[string]caaction.RoleProgram{
		// Compute is a cooperative wait: the cancellation's interrupt path
		// unwinds it long before the hour passes.
		"only": {Body: func(c *caaction.Context) error { return c.Compute(time.Hour) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StartAction(context.Background(), soloSpec(t, "T2"), map[string]caaction.RoleProgram{
		"only": {Body: func(c *caaction.Context) error { return nil }},
	}); !errors.Is(err, caaction.ErrOverloaded) {
		t.Fatalf("start past budget = %v, want ErrOverloaded", err)
	}

	cancel()
	h.WaitDone()
	if h.Err() == nil {
		t.Fatal("cancelled action reported success")
	}
	waitAdmitted(t, sys, "T2")
}

// TestTenantBudget pins per-tenant fairness: with a global budget of 4 and
// a tenant budget of 1, a tenant at its cap is refused — with the tenant
// named in the typed error — while another tenant is still admitted.
func TestTenantBudget(t *testing.T) {
	sys, err := caaction.New(caaction.WithRealTime(),
		caaction.WithMaxInFlight(4), caaction.WithTenantBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	spec := soloSpec(t, "T1")
	gate := make(chan struct{})
	blocked := map[string]caaction.RoleProgram{
		"only": {Body: func(ctx *caaction.Context) error { <-gate; return nil }},
	}
	ha, err := sys.StartAction(context.Background(), spec, blocked, caaction.WithTenant("acme"))
	if err != nil {
		t.Fatal(err)
	}

	_, err = sys.StartAction(context.Background(), soloSpec(t, "T2"), blocked, caaction.WithTenant("acme"))
	var oe *caaction.OverloadedError
	if !errors.As(err, &oe) || oe.Tenant != "acme" || oe.Limit != 1 {
		t.Fatalf("same-tenant start past budget = %v, want tenant-typed refusal", err)
	}

	hb, err := sys.StartAction(context.Background(), soloSpec(t, "T3"), blocked, caaction.WithTenant("globex"))
	if err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}

	close(gate)
	ha.WaitDone()
	hb.WaitDone()
	// acme's slot released: the tenant can start again.
	waitAdmittedTenant(t, sys, "T2", "acme")
}

func waitAdmittedTenant(t *testing.T, sys *caaction.System, thread, tenant string) {
	t.Helper()
	spec, err := caaction.NewSpec("probe").Role("only", thread).Build()
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]caaction.RoleProgram{
		"only": {Body: func(ctx *caaction.Context) error { return nil }},
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := sys.StartAction(context.Background(), spec, progs, caaction.WithTenant(tenant))
		if err == nil {
			h.WaitDone()
			return
		}
		if !errors.Is(err, caaction.ErrOverloaded) {
			t.Fatalf("tenant probe start: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("tenant budget never released")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlinePropagationReleasesBudget runs under the deterministic
// virtual clock: a ctx deadline propagates into the runtime, so a role
// computing far past it unwinds at the deadline instead of holding its
// admission slot for the full computation — the doomed action aborts,
// records an action.deadline_aborts tick, and the budget readmits. As
// everywhere under the virtual clock, the blocking handle waits run on a
// tracked driver goroutine (sys.Go), never on the untracked test main.
func TestDeadlinePropagationReleasesBudget(t *testing.T) {
	metrics := &caaction.Metrics{}
	sys, err := caaction.New(caaction.WithMaxInFlight(1), caaction.WithMetrics(metrics))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	spec := soloSpec(t, "T1")
	var herr error
	started := errors.New("driver never ran")
	sys.Go(func() {
		h, err := sys.StartAction(ctx, spec, map[string]caaction.RoleProgram{
			// An hour of virtual compute: without deadline propagation this
			// holds the only admission slot for a (virtual) hour.
			"only": {Body: func(c *caaction.Context) error { return c.Compute(time.Hour) }},
		})
		started = err
		if err != nil {
			return
		}
		h.WaitDone()
		herr = h.Err()
	})
	sys.Wait()
	if started != nil {
		t.Fatalf("StartAction: %v", started)
	}
	if herr == nil {
		t.Fatal("deadlined action reported success")
	}
	if !errors.Is(herr, caaction.ErrDeadline) && !errors.Is(herr, context.DeadlineExceeded) && !caaction.IsFailed(herr) {
		t.Fatalf("deadlined outcome = %v, want a deadline-typed or ƒ error", herr)
	}
	if got := metrics.Get("action.deadline_aborts"); got == 0 {
		t.Error("action.deadline_aborts = 0, want at least one tick")
	}

	// The slot must be free the moment the doomed action's roles finished
	// (sys.Wait ran their deferred releases): one probe start must succeed.
	probe := soloSpec(t, "T2")
	probeErr := errors.New("probe never ran")
	sys.Go(func() {
		h, err := sys.StartAction(context.Background(), probe, map[string]caaction.RoleProgram{
			"only": {Body: func(c *caaction.Context) error { return nil }},
		})
		if err != nil {
			probeErr = err
			return
		}
		h.WaitDone()
		probeErr = h.Err()
	})
	sys.Wait()
	if probeErr != nil {
		t.Fatalf("budget not released after deadline abort: %v", probeErr)
	}
}

// TestExpiredDeadlineRefusedUpFront: a ctx already past its deadline is
// refused before consuming any budget.
func TestExpiredDeadlineRefusedUpFront(t *testing.T) {
	sys, err := caaction.New(caaction.WithRealTime(), caaction.WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = sys.StartAction(ctx, soloSpec(t, "T1"), map[string]caaction.RoleProgram{
		"only": {Body: func(c *caaction.Context) error { return nil }},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("start with expired deadline = %v, want DeadlineExceeded", err)
	}
	waitAdmitted(t, sys, "T1")
}

// TestMetricsEndpoint serves the interned counter registry over HTTP in
// the Prometheus text format and checks a known counter appears with the
// caaction_ prefix and sanitized name.
func TestMetricsEndpoint(t *testing.T) {
	sys, err := caaction.New(caaction.WithRealTime(), caaction.WithMetricsAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	addr := sys.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty after WithMetricsAddr")
	}

	h, err := sys.StartAction(context.Background(), soloSpec(t, "T1"), map[string]caaction.RoleProgram{
		"only": {Body: func(c *caaction.Context) error { return nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.WaitDone()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	text := string(body)
	if !strings.Contains(text, "# TYPE caaction_action_entries counter") ||
		!strings.Contains(text, "caaction_action_entries ") {
		t.Fatalf("scrape missing caaction_action_entries:\n%s", text)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, ".") && !strings.HasPrefix(line, "#") && line != "" {
			t.Fatalf("unsanitized metric line %q", line)
		}
	}
}
