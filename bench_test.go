package caaction_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caaction"
	"caaction/experiments"
	"caaction/load"
	"caaction/prodcell"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§5) through the public API. Each benchmark iteration runs a
// complete deterministic simulation; the virtual execution time the paper
// reports is exposed as the "vsec" metric (virtual seconds) and message
// counts as "msgs", while ns/op measures the simulator itself.
// TestPaperAnchors asserts the same figures exactly.

// paperAnchors are the paper's fixed points, one per benchmark: the runner
// performs one simulation and returns the figure, and want is the value
// BENCH_chaos.json records for the benchmark of that name.
var paperAnchors = []struct {
	bench string
	unit  string // "vsec" or "msgs"
	want  float64
	run   func() (float64, error)
}{
	// §5.2 baseline: Tmmax=0.2s, Tabo=0.1s, Treso=0.3s, 20 iterations —
	// the paper reports 94.36 virtual seconds.
	{"BenchmarkFig9Baseline", "vsec", 94.0, func() (float64, error) { return fig9Point(nil) }},
	// Figure 9/10 sweep points: message passing below and above the knee,
	// abortion and resolution costs.
	{"BenchmarkFig9TmmaxBelowKnee", "vsec", 154.0, func() (float64, error) {
		return fig9Point(func(c *experiments.Fig9Config) { c.Tmmax = 800 * time.Millisecond })
	}},
	{"BenchmarkFig9TmmaxAboveKnee", "vsec", 370.0, func() (float64, error) {
		return fig9Point(func(c *experiments.Fig9Config) { c.Tmmax = 2400 * time.Millisecond })
	}},
	{"BenchmarkFig9TaboHigh", "vsec", 134.0, func() (float64, error) {
		return fig9Point(func(c *experiments.Fig9Config) { c.Tabo = 2100 * time.Millisecond })
	}},
	{"BenchmarkFig9TresoHigh", "vsec", 134.0, func() (float64, error) {
		return fig9Point(func(c *experiments.Fig9Config) { c.Treso = 2300 * time.Millisecond })
	}},
	// §5.3 (three concurrent exceptions): the paper's algorithm against the
	// CR-86 model; the paper reports 9.15 s vs 11.77 s at Tmmax=1.0 s,
	// Tres=0.3 s.
	{"BenchmarkFig12Coordinated", "vsec", 9.15, func() (float64, error) { return fig12Point(caaction.Coordinated) }},
	{"BenchmarkFig12CR86", "vsec", 10.75, func() (float64, error) { return fig12Point(caaction.CR86) }},
	// §3.3.3 counts at N=6 in the all-raise scenario: (N+1)(N−1),
	// 3N(N−1) and the O(N³) CR-86 total.
	{"BenchmarkMessagesCoordinatedN6", "msgs", 35, func() (float64, error) { return messagesN6(caaction.Coordinated) }},
	{"BenchmarkMessagesCR86N6", "msgs", 180, func() (float64, error) { return messagesN6(caaction.CR86) }},
	{"BenchmarkMessagesR96N6", "msgs", 90, func() (float64, error) { return messagesN6(caaction.R96) }},
	// §3.4 signalling at N=6: the worst case (undo round) is 2N(N−1).
	{"BenchmarkSignallingN6", "msgs", 60, signallingN6},
	// §4: one fault-free production cycle — eight controller threads, four
	// nesting levels, one forged plate delivered.
	{"BenchmarkProductionCellCycle", "vsec", 2.226, prodCellCycle},
	// Lemma 1 at nesting depth 3.
	{"BenchmarkLemma1Depth3", "vsec", 1.4, lemma1Depth3},
}

func fig9Point(mutate func(*experiments.Fig9Config)) (float64, error) {
	cfg := experiments.DefaultFig9()
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := experiments.RunFig9Point(cfg)
	return d.Seconds(), err
}

func fig12Point(protocol caaction.ResolutionProtocol) (float64, error) {
	d, err := experiments.RunFig12Point(experiments.Fig12Config{
		Tmmax: time.Second, Tres: 300 * time.Millisecond,
		Protocol: protocol,
	})
	return d.Seconds(), err
}

// messagesN6 is experiment E3: the resolution-message total at N=6 in the
// all-raise scenario.
func messagesN6(protocol caaction.ResolutionProtocol) (float64, error) {
	rows, err := experiments.RunMessageComplexity([]int{6})
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		if r.Protocol == protocol.Name() && r.Scenario == "all" {
			return float64(r.Messages), nil
		}
	}
	return 0, fmt.Errorf("no all-raise row for %s", protocol.Name())
}

// signallingN6 is experiment E4: the most messages any N=6 signalling
// scenario exchanges.
func signallingN6() (float64, error) {
	rows, err := experiments.RunSignalling([]int{6})
	var worst int64
	for _, r := range rows {
		worst = max(worst, r.Messages)
	}
	return float64(worst), err
}

// prodCellCycle is experiment E5: the virtual time of one production cycle.
func prodCellCycle() (float64, error) {
	sys, err := caaction.New(
		caaction.WithVirtualTime(),
		caaction.WithSimTransport(time.Millisecond),
	)
	if err != nil {
		return 0, err
	}
	plant := prodcell.NewPlant(sys, prodcell.DefaultPlantConfig())
	ctl, err := prodcell.NewController(sys, plant, prodcell.DefaultControlConfig())
	if err != nil {
		return 0, err
	}
	rep := ctl.RunCycle()
	for th, err := range rep.Outcomes {
		if err != nil {
			return 0, fmt.Errorf("%s: %w", th, err)
		}
	}
	return sys.Now().Seconds(), nil
}

// lemma1Depth3 is experiment E6 at nesting depth 3.
func lemma1Depth3() (float64, error) {
	rows, err := experiments.RunLemma1([]int{3},
		200*time.Millisecond, 100*time.Millisecond, 300*time.Millisecond)
	if err != nil {
		return 0, err
	}
	return rows[0].Measured.Seconds(), nil
}

// benchAnchor runs the paper anchor named like the benchmark b.N times and
// reports its figure.
func benchAnchor(b *testing.B) {
	for _, a := range paperAnchors {
		if a.bench != b.Name() {
			continue
		}
		b.ReportAllocs()
		var v float64
		for i := 0; i < b.N; i++ {
			var err error
			if v, err = a.run(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(v, a.unit)
		return
	}
	b.Fatalf("no paper anchor for %s", b.Name())
}

func BenchmarkFig9Baseline(b *testing.B)          { benchAnchor(b) }
func BenchmarkFig9TmmaxBelowKnee(b *testing.B)    { benchAnchor(b) }
func BenchmarkFig9TmmaxAboveKnee(b *testing.B)    { benchAnchor(b) }
func BenchmarkFig9TaboHigh(b *testing.B)          { benchAnchor(b) }
func BenchmarkFig9TresoHigh(b *testing.B)         { benchAnchor(b) }
func BenchmarkFig12Coordinated(b *testing.B)      { benchAnchor(b) }
func BenchmarkFig12CR86(b *testing.B)             { benchAnchor(b) }
func BenchmarkMessagesCoordinatedN6(b *testing.B) { benchAnchor(b) }
func BenchmarkMessagesCR86N6(b *testing.B)        { benchAnchor(b) }
func BenchmarkMessagesR96N6(b *testing.B)         { benchAnchor(b) }
func BenchmarkSignallingN6(b *testing.B)          { benchAnchor(b) }
func BenchmarkProductionCellCycle(b *testing.B)   { benchAnchor(b) }
func BenchmarkLemma1Depth3(b *testing.B)          { benchAnchor(b) }

// TestPaperAnchors asserts every paper anchor exactly — to the nanosecond
// of virtual time, to the message — at the value BENCH_chaos.json records
// for its benchmark.
func TestPaperAnchors(t *testing.T) {
	raw, err := os.ReadFile("BENCH_chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		Benchmarks []struct {
			Pkg, Name      string
			VirtualSeconds *float64 `json:"virtual_seconds"`
			Messages       *float64 `json:"messages"`
		}
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	recorded := make(map[string]float64)
	for _, bm := range baseline.Benchmarks {
		if bm.Pkg != "caaction" {
			continue
		}
		if bm.VirtualSeconds != nil {
			recorded[bm.Name+"/vsec"] = *bm.VirtualSeconds
		}
		if bm.Messages != nil {
			recorded[bm.Name+"/msgs"] = *bm.Messages
		}
	}
	for _, a := range paperAnchors {
		t.Run(strings.TrimPrefix(a.bench, "Benchmark"), func(t *testing.T) {
			if rec, ok := recorded[a.bench+"/"+a.unit]; !ok || rec != a.want {
				t.Errorf("BENCH_chaos.json records %v %s (present %v), the anchor says %v", rec, a.unit, ok, a.want)
			}
			got, err := a.run()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-a.want) > 1e-9 {
				t.Errorf("%s = %v, want exactly %v", a.unit, got, a.want)
			}
		})
	}
}

// BenchmarkStartActionCommit is the one-action-in-process rung: 16
// closed-loop callers each start a 3-role action whose roles commit at
// once, over the sim transport on the real clock, and wait for it. ns/op
// is wall time per action across the callers; allocs/op is per action.
func BenchmarkStartActionCommit(b *testing.B) {
	benchStartActionCommit(b, caaction.WithSimTransport(0))
}

// BenchmarkStartActionCommitTCP is the same action over loopback TCP: the
// difference to BenchmarkStartActionCommit is the wire's share (encode,
// coalesced flush, read loop, decode).
func BenchmarkStartActionCommitTCP(b *testing.B) {
	benchStartActionCommit(b, caaction.WithTCPTransport(""))
}

// BenchmarkStartActionCommitWAL is the same in-process action recorded by
// a durable WAL at its default cadence: each role's join, vote and
// outcome is written and fsynced before its message leaves, with the
// callers' appends group-committed. The difference to
// BenchmarkStartActionCommit is the WAL's share.
func BenchmarkStartActionCommitWAL(b *testing.B) {
	w, err := caaction.OpenWAL(filepath.Join(b.TempDir(), "node.wal"), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	benchStartActionCommit(b, caaction.WithSimTransport(0), caaction.WithRecorder(w))
}

// BenchmarkStartActionSignal, BenchmarkStartActionAbort and
// BenchmarkStartActionStorm are the exceptional rungs next to
// BenchmarkStartActionCommit: the same 16 callers and sim transport, each
// action one of the load harness's 3-role actions of that kind — an
// exceptional exit through §3.4 signalling, a §3.3.2 abort cascade out of a
// nested action, and a resolution storm. Every role's outcome is checked
// with the public classifiers.
func BenchmarkStartActionSignal(b *testing.B) { benchStartActionKind(b, load.KindSignal) }
func BenchmarkStartActionAbort(b *testing.B)  { benchStartActionKind(b, load.KindAbort) }
func BenchmarkStartActionStorm(b *testing.B)  { benchStartActionKind(b, load.KindStorm) }

func benchStartActionKind(b *testing.B, kind string) {
	spec, progs, err := load.Workload(kind, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchStartAction(b, spec, progs, loadKindOK[kind], caaction.WithSimTransport(0))
}

// loadKindOK reports whether one role's outcome is what an action of each
// load kind ends in, allocating nothing.
var loadKindOK = map[string]func(err error) bool{
	load.KindCommit: func(err error) bool { return err == nil },
	load.KindSignal: func(err error) bool {
		se, ok := caaction.AsSignalled(err)
		return ok && se.Exc == "overload"
	},
	load.KindAbort: caaction.IsUndone,
	load.KindStorm: func(err error) bool { return err == nil },
}

// commitSpec is the 3-role action whose roles commit at once, shared by the
// StartActionCommit rungs and the allocation ceiling.
func commitSpec(tb testing.TB) (*caaction.Spec, map[string]caaction.RoleProgram) {
	spec, err := caaction.NewSpec("commit").
		Role("a", "T1").Role("b", "T2").Role("c", "T3").
		Build()
	if err != nil {
		tb.Fatal(err)
	}
	ok := caaction.RoleProgram{Body: func(*caaction.Context) error { return nil }}
	return spec, map[string]caaction.RoleProgram{"a": ok, "b": ok, "c": ok}
}

// TestStartActionCommitAllocCeiling pins the allocation cost of one action
// on the in-process path: a 3-role commit over the sim transport on the
// real clock, started and awaited by one caller. Protocol messages are
// values and are never boxed; a change that puts one on the heap, per send
// or per hop, shows up here as several allocations per action. The six
// that remain are what the caller holds: the ActionHandle, its done
// channel, the instance's one identifier string and a Context per role.
//
// A second action stays in flight on the same threads for the whole test,
// as one of the benchmark's 16 callers always is: without it every action
// would re-bind its threads' shared mux endpoints, and the ceiling would
// measure the bind instead of the action.
func TestStartActionCommitAllocCeiling(t *testing.T) {
	commitAllocCeiling(t, caaction.WithSimTransport(0), 6)
}

// TestStartActionCommitTCPAllocCeiling is the same action over loopback
// TCP: on top of the in-process cost, each connection's reader allocates
// the action's identifier once (later messages of the action find it in
// the connection's table) and nothing per message.
func TestStartActionCommitTCPAllocCeiling(t *testing.T) {
	commitAllocCeiling(t, caaction.WithTCPTransport(""), 12)
}

// commitAllocCeiling fails t when one commit action over transport
// allocates more than ceiling, measured as TestStartActionCommitAllocCeiling
// describes.
func commitAllocCeiling(t *testing.T, transport caaction.Option, ceiling float64) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates: sync.Pool drops items at random")
	}
	sys, err := caaction.New(caaction.WithRealTime(), transport)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec, progs := commitSpec(t)
	release := make(chan struct{})
	hold := caaction.RoleProgram{Body: func(*caaction.Context) error { <-release; return nil }}
	holder, err := sys.StartAction(context.Background(), spec,
		map[string]caaction.RoleProgram{"a": hold, "b": hold, "c": hold})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		holder.WaitDone()
	}()
	action := func() {
		h, err := sys.StartAction(context.Background(), spec, progs)
		if err != nil {
			panic(err)
		}
		h.WaitDone()
		if err := h.Err(); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 64; i++ {
		action() // warm the runner, thread, frame and delivery pools
	}
	runtime.GC()
	n := testing.AllocsPerRun(200, action)
	t.Logf("one commit action: %v allocs", n)
	if n > ceiling {
		t.Fatalf("one commit action allocates %v allocs, ceiling %v", n, ceiling)
	}
}

// TestLoadKindAllocCeilings pins the allocation cost of one action of each
// load kind — a commit, an exceptional exit through §3.4 signalling, a
// §3.3.2 abort cascade out of a nested action, and a resolution storm — on
// the path TestStartActionCommitAllocCeiling measures: 3 roles over the sim
// transport on the real clock, one caller, a holder action keeping the
// threads' shared endpoints bound. Each action's outcome is checked inside
// the measured function with the public classifiers, so the ceilings also
// pin that classifying an outcome allocates nothing. On top of a commit's
// six, what remains is held by a caller too: a signal adds a SignalledError
// per role and the raised slice a handler would get; an abort adds the
// nested action's identifier, its two roles' Contexts, a SignalledError
// (µ) per role and the raised slice; a storm adds the raised slice its
// handlers get.
func TestLoadKindAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates: sync.Pool drops items at random")
	}
	for _, tc := range []struct {
		kind    string
		ceiling float64 // allocs per action
	}{
		{load.KindCommit, 6},
		{load.KindSignal, 10},
		{load.KindAbort, 13},
		{load.KindStorm, 7},
	} {
		ok := loadKindOK[tc.kind]
		t.Run(tc.kind, func(t *testing.T) {
			sys, err := caaction.New(caaction.WithRealTime(), caaction.WithSimTransport(0))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = sys.Close() }()
			spec, progs, err := load.Workload(tc.kind, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			holdSpec, _, err := load.Workload(load.KindCommit, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			release := make(chan struct{})
			hold := caaction.RoleProgram{Body: func(*caaction.Context) error { <-release; return nil }}
			holdProgs := make(map[string]caaction.RoleProgram)
			for i := 0; i < 3; i++ {
				holdProgs[load.RoleName(i)] = hold
			}
			holder, err := sys.StartAction(context.Background(), holdSpec, holdProgs)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				close(release)
				holder.WaitDone()
			}()
			bad := false
			action := func() {
				h, err := sys.StartAction(context.Background(), spec, progs)
				if err != nil {
					panic(err)
				}
				h.WaitDone()
				h.Each(func(_ string, err error) {
					if !ok(err) {
						bad = true
					}
				})
			}
			for i := 0; i < 64; i++ {
				action() // warm the runner, thread, frame and delivery pools
			}
			runtime.GC()
			n := testing.AllocsPerRun(200, action)
			if bad {
				t.Fatalf("a %s action did not end in %s", tc.kind, load.Expect(tc.kind))
			}
			t.Logf("one %s action: %v allocs", tc.kind, n)
			if n > tc.ceiling {
				t.Fatalf("one %s action allocates %v allocs, ceiling %v", tc.kind, n, tc.ceiling)
			}
		})
	}
}

// raceEnabled is set in -race builds (race_test.go), whose allocation
// counts are not the program's.
var raceEnabled bool

func benchStartActionCommit(b *testing.B, opts ...caaction.Option) {
	spec, progs := commitSpec(b)
	benchStartAction(b, spec, progs, loadKindOK[load.KindCommit], opts...)
}

// benchStartAction runs b.N actions of spec across 16 closed-loop callers
// on the real clock, on a System built with opts (its transport, and any
// recorder), failing b when a role's outcome does not satisfy ok.
func benchStartAction(b *testing.B, spec *caaction.Spec, progs map[string]caaction.RoleProgram, ok func(error) bool, opts ...caaction.Option) {
	sys, err := caaction.New(append([]caaction.Option{caaction.WithRealTime()}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	const callers = 16
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				h, err := sys.StartAction(context.Background(), spec, progs)
				if err != nil {
					errs <- err
					return
				}
				h.WaitDone()
				h.Each(func(role string, rerr error) {
					if err == nil && !ok(rerr) {
						err = fmt.Errorf("%s role %s: unexpected outcome %v", spec.Name, role, rerr)
					}
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}
