package load_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"caaction"
	"caaction/load"
)

// TestLoadSimMixedOutcomes runs the full mix over the sim transport and
// checks every action produced exactly its kind's expected outcome.
func TestLoadSimMixedOutcomes(t *testing.T) {
	cfg := load.Config{Actions: 400, Concurrency: 64, Roles: 3, Seed: 7}
	if testing.Short() {
		cfg.Actions = 120
	}
	rep, err := load.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unexpected) > 0 {
		t.Fatalf("unexpected outcomes (%d):\n%v", len(rep.Unexpected), rep.Unexpected[:min(5, len(rep.Unexpected))])
	}
	total := 0
	for _, n := range rep.Outcomes {
		total += n
	}
	if total != cfg.Actions {
		t.Errorf("outcome total %d, want %d", total, cfg.Actions)
	}
	for _, kind := range []string{load.KindCommit, load.KindSignal, load.KindAbort, load.KindStorm} {
		if rep.Kinds[kind] == nil || rep.Kinds[kind].Actions == 0 {
			t.Errorf("mix produced no %s actions", kind)
		}
	}
	if rep.Throughput <= 0 {
		t.Errorf("throughput = %v", rep.Throughput)
	}
	if rep.Messages["Enter"] == 0 || rep.Messages["ToBeSignalled"] == 0 {
		t.Errorf("protocol message counts missing: %v", rep.Messages)
	}
}

// TestLoadResolverComparison runs the same seeded workload under all three
// resolution protocols; outcomes must agree (the protocols are equivalent in
// what they decide, only their message complexity differs).
func TestLoadResolverComparison(t *testing.T) {
	actions := 150
	if testing.Short() {
		actions = 60
	}
	var first map[string]int
	for _, resolver := range []string{"coordinated", "cr86", "r96"} {
		rep, err := load.Run(load.Config{Actions: actions, Concurrency: 32, Seed: 11, Resolver: resolver})
		if err != nil {
			t.Fatalf("%s: %v", resolver, err)
		}
		if len(rep.Unexpected) > 0 {
			t.Fatalf("%s: unexpected outcomes: %v", resolver, rep.Unexpected[:min(5, len(rep.Unexpected))])
		}
		if first == nil {
			first = rep.Outcomes
		} else {
			for outcome, n := range first {
				if rep.Outcomes[outcome] != n {
					t.Errorf("%s: outcome %q count %d, coordinated had %d",
						resolver, outcome, rep.Outcomes[outcome], n)
				}
			}
		}
	}
}

// TestLoadTCPSharedEndpointPair stresses the demultiplexer over the real TCP
// transport: ≥100 concurrent actions all muxed over one TCP endpoint pair.
// Run under -race this is the transport's data-race coverage.
func TestLoadTCPSharedEndpointPair(t *testing.T) {
	cfg := load.Config{
		Actions:     120,
		Concurrency: 40,
		Roles:       2, // exactly one endpoint pair
		Transport:   "tcp",
		Seed:        3,
	}
	if testing.Short() {
		cfg.Actions = 50
	}
	rep, err := load.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unexpected) > 0 {
		t.Fatalf("unexpected outcomes over TCP (%d):\n%v",
			len(rep.Unexpected), rep.Unexpected[:min(5, len(rep.Unexpected))])
	}
	total := 0
	for _, n := range rep.Outcomes {
		total += n
	}
	if total != cfg.Actions {
		t.Errorf("outcome total %d, want %d", total, cfg.Actions)
	}
}

// TestThousandConcurrentActions is the acceptance bar for the concurrent
// multi-action runtime: one System holds ≥1000 action instances in flight
// simultaneously — every instance provably entered before any may complete,
// enforced by a gate all bodies block on — and drives them all to a correct
// completion over the shared sim transport.
func TestThousandConcurrentActions(t *testing.T) {
	const n = 1000
	sys, err := caaction.New(caaction.WithRealTime(), caaction.WithSimTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	spec, err := caaction.NewSpec("flood").
		Role("left", "T1").
		Role("right", "T2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	entered := make(chan struct{}, 2*n)
	body := func(ctx *caaction.Context) error {
		entered <- struct{}{}
		<-gate // held until all n instances are in flight
		return ctx.Checkpoint()
	}
	progs := map[string]caaction.RoleProgram{"left": {Body: body}, "right": {Body: body}}

	handles := make([]*caaction.ActionHandle, n)
	for i := range handles {
		h, err := sys.StartAction(context.Background(), spec, progs)
		if err != nil {
			t.Fatalf("StartAction %d: %v", i, err)
		}
		handles[i] = h
	}
	deadline := time.After(2 * time.Minute)
	for i := 0; i < 2*n; i++ {
		select {
		case <-entered:
		case <-deadline:
			t.Fatalf("only %d of %d roles entered in time", i, 2*n)
		}
	}
	close(gate) // all 1000 instances are concurrent right now
	sys.Wait()
	for i, h := range handles {
		if !h.Done() {
			t.Fatalf("instance %d not done", i)
		}
		if err := h.Err(); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	if got := sys.Metrics().Get("action.completions"); got != 2*n {
		t.Errorf("action.completions = %d, want %d", got, 2*n)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestParseMix(t *testing.T) {
	cases := []struct {
		in      string
		want    load.Mix
		wantErr bool
	}{
		{"", load.Mix{}, false},
		{"commit:6,signal:2,abort:1,storm:1", load.Mix{6, 2, 1, 1}, false},
		{" storm:3 , commit:1 ", load.Mix{Commit: 1, Storm: 3}, false},
		{"commit:8", load.Mix{Commit: 8}, false},
		{"commit", load.Mix{}, true},            // no weight
		{"commit:x", load.Mix{}, true},          // bad weight
		{"commit:-1", load.Mix{}, true},         // negative weight
		{"retry:5", load.Mix{}, true},           // unknown kind
		{"commit:0,signal:0", load.Mix{}, true}, // zero total
	}
	for _, tc := range cases {
		got, err := load.ParseMix(tc.in)
		if tc.wantErr != (err != nil) {
			t.Errorf("load.ParseMix(%q) error = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && got != tc.want {
			t.Errorf("load.ParseMix(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestLoadSweepAndWatermarks runs a tiny two-point sweep and checks the
// scaling report is coherent: per-point configs respected, watermarks
// recorded (the goroutine high-water must at least reflect the drivers and
// their roles), outcomes all expected.
func TestLoadSweepAndWatermarks(t *testing.T) {
	actions := 300
	if testing.Short() {
		actions = 80
	}
	// A 100µs hop keeps each action in flight while the other drivers
	// start theirs. With zero latency an action can finish before the last
	// driver has started, and then fewer than c actions are ever in flight.
	cfg := load.Config{Actions: actions, Roles: 2, Seed: 7, Latency: 100 * time.Microsecond}
	points, err := load.RunSweep(cfg, []int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d sweep points, want 2", len(points))
	}
	for i, c := range []int{8, 32} {
		p := points[i]
		if p.Concurrency != c || p.Actions != actions {
			t.Errorf("point %d: concurrency/actions = %d/%d, want %d/%d", i, p.Concurrency, p.Actions, c, actions)
		}
		if p.Throughput <= 0 {
			t.Errorf("point %d: non-positive throughput %f", i, p.Throughput)
		}
		if p.AllocsPerAction <= 0 {
			t.Errorf("point %d: non-positive allocs_per_action %f", i, p.AllocsPerAction)
		}
		// The c drivers alone are c goroutines, each with an action's
		// roles on runners; the high-water mark must at least see them.
		if p.GoroutineHighWater < c*2 {
			t.Errorf("point %d: goroutine high-water %d below %d", i, p.GoroutineHighWater, c*2)
		}
		if p.PeakHeapBytes == 0 {
			t.Errorf("point %d: zero peak heap", i)
		}
	}
}

// TestWorkloadExports drives the exported per-kind workloads — the surface
// the cluster testnet starts through its own Systems — and checks each
// kind's classified outcome matches Expect, with storm decisions streamed
// to the observer and agreeing on one resolved cover.
func TestWorkloadExports(t *testing.T) {
	const roles = 3
	var (
		mu        sync.Mutex
		decisions []load.Decision
	)
	obs := func(d load.Decision) {
		mu.Lock()
		defer mu.Unlock()
		decisions = append(decisions, d)
	}
	for _, kind := range []string{load.KindCommit, load.KindSignal, load.KindAbort, load.KindStorm} {
		spec, progs, err := load.Workload(kind, roles, obs)
		if err != nil {
			t.Fatalf("Workload(%s): %v", kind, err)
		}
		sys, err := caaction.New()
		if err != nil {
			t.Fatal(err)
		}
		h, err := sys.StartAction(context.Background(), spec, progs)
		if err != nil {
			t.Fatalf("start %s: %v", kind, err)
		}
		sys.Wait()
		outcomes := make([]string, 0, roles)
		h.Each(func(role string, err error) {
			outcomes = append(outcomes, load.ClassifyRole(err))
		})
		if got := load.MergeOutcomes(outcomes...); got != load.Expect(kind) {
			t.Errorf("%s outcome = %q, want %q (roles: %v)", kind, got, load.Expect(kind), outcomes)
		}
		_ = sys.Close()
	}
	if len(decisions) != roles {
		t.Fatalf("observer saw %d storm decisions, want %d", len(decisions), roles)
	}
	for _, d := range decisions[1:] {
		if d.Resolved != decisions[0].Resolved {
			t.Errorf("storm decisions disagree: %v vs %v", d, decisions[0])
		}
	}
	for _, d := range decisions {
		if len(d.Raised) == 0 || d.Resolved == "" {
			t.Errorf("incomplete decision: %+v", d)
		}
	}

	if _, _, err := load.Workload("nope", roles, nil); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, _, err := load.Workload(load.KindCommit, 1, nil); err == nil {
		t.Error("single-role workload accepted")
	}
	if load.MergeOutcomes("ok", "signalled:x", "undone", "failed") != "failed" {
		t.Error("severity order broken")
	}
	if load.ThreadName(0) != "L1" || load.RoleName(2) != "r3" {
		t.Error("naming exports out of sync with the harness")
	}
}

// TestClassifyRoleSignalledAllocs: classifying an exceptional exit whose
// exception was seen before allocates nothing, and the interned outcome
// reads as the concatenation did.
func TestClassifyRoleSignalledAllocs(t *testing.T) {
	err := error(&caaction.SignalledError{Action: "a1!load-signal#1", Spec: "load-signal", Exc: "overload"})
	if got := load.ClassifyRole(err); got != "signalled:overload" {
		t.Fatalf("ClassifyRole = %q, want signalled:overload", got)
	}
	var outcome string
	n := testing.AllocsPerRun(100, func() { outcome = load.ClassifyRole(err) })
	if n != 0 || outcome != "signalled:overload" {
		t.Fatalf("ClassifyRole of a repeated exception: %v allocs, %q; want 0 and signalled:overload", n, outcome)
	}
}
