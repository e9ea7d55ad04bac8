package caaction_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caaction"
	"caaction/experiments"
	"caaction/prodcell"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§5) through the public API. Each benchmark iteration runs a
// complete deterministic simulation; the virtual execution time the paper
// reports is exposed as the "vsec" metric (virtual seconds), while ns/op
// measures the simulator itself.

// BenchmarkFig9Baseline is the §5.2 baseline point: Tmmax=0.2s, Tabo=0.1s,
// Treso=0.3s, 20 iterations — the paper reports 94.36 virtual seconds.
func BenchmarkFig9Baseline(b *testing.B) {
	b.ReportAllocs()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		d, err := experiments.RunFig9Point(experiments.DefaultFig9())
		if err != nil {
			b.Fatal(err)
		}
		total = d
	}
	b.ReportMetric(total.Seconds(), "vsec")
}

func benchFig9(b *testing.B, mutate func(*experiments.Fig9Config)) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig9()
		mutate(&cfg)
		d, err := experiments.RunFig9Point(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total = d
	}
	b.ReportMetric(total.Seconds(), "vsec")
}

// Figure 9/10 sweep points: message passing below and above the knee,
// abortion and resolution costs.
func BenchmarkFig9TmmaxBelowKnee(b *testing.B) {
	b.ReportAllocs()
	benchFig9(b, func(c *experiments.Fig9Config) { c.Tmmax = 800 * time.Millisecond })
}

func BenchmarkFig9TmmaxAboveKnee(b *testing.B) {
	b.ReportAllocs()
	benchFig9(b, func(c *experiments.Fig9Config) { c.Tmmax = 2400 * time.Millisecond })
}

func BenchmarkFig9TaboHigh(b *testing.B) {
	b.ReportAllocs()
	benchFig9(b, func(c *experiments.Fig9Config) { c.Tabo = 2100 * time.Millisecond })
}

func BenchmarkFig9TresoHigh(b *testing.B) {
	b.ReportAllocs()
	benchFig9(b, func(c *experiments.Fig9Config) { c.Treso = 2300 * time.Millisecond })
}

// BenchmarkFig12 compares the paper's algorithm with the CR-86 model on the
// §5.3 scenario (three concurrent exceptions); the paper reports 9.15 s vs
// 11.77 s at Tmmax=1.0 s, Tres=0.3 s.
func benchFig12(b *testing.B, protocol caaction.ResolutionProtocol) {
	b.ReportAllocs()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		d, err := experiments.RunFig12Point(experiments.Fig12Config{
			Tmmax: time.Second, Tres: 300 * time.Millisecond,
			Protocol: protocol,
		})
		if err != nil {
			b.Fatal(err)
		}
		total = d
	}
	b.ReportMetric(total.Seconds(), "vsec")
}

func BenchmarkFig12Coordinated(b *testing.B) { benchFig12(b, caaction.Coordinated) }
func BenchmarkFig12CR86(b *testing.B)        { benchFig12(b, caaction.CR86) }

// BenchmarkMessageComplexity measures experiment E3 (the §3.3.3 counts) for
// N=2..6; the msgs metric is the resolution-message total for the largest N
// in the all-raise scenario.
func benchMsgs(b *testing.B, protocol caaction.ResolutionProtocol) {
	b.ReportAllocs()
	var last int64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunMessageComplexity([]int{6})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Protocol == protocol.Name() && r.Scenario == "all" {
				last = r.Messages
			}
		}
	}
	b.ReportMetric(float64(last), "msgs")
}

func BenchmarkMessagesCoordinatedN6(b *testing.B) { benchMsgs(b, caaction.Coordinated) }
func BenchmarkMessagesCR86N6(b *testing.B)        { benchMsgs(b, caaction.CR86) }
func BenchmarkMessagesR96N6(b *testing.B)         { benchMsgs(b, caaction.R96) }

// BenchmarkSignalling measures experiment E4 (the §3.4 exchange) at N=6;
// worst case (undo round) is 2N(N−1) messages.
func BenchmarkSignallingN6(b *testing.B) {
	b.ReportAllocs()
	var worst int64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunSignalling([]int{6})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Messages > worst {
				worst = r.Messages
			}
		}
	}
	b.ReportMetric(float64(worst), "msgs")
}

// BenchmarkProductionCellCycle runs one full fault-free §4 production cycle
// (experiment E5): eight controller threads, four nesting levels, one forged
// plate delivered.
func BenchmarkProductionCellCycle(b *testing.B) {
	b.ReportAllocs()
	var vsec float64
	for i := 0; i < b.N; i++ {
		sys, err := caaction.New(
			caaction.WithVirtualTime(),
			caaction.WithSimTransport(time.Millisecond),
		)
		if err != nil {
			b.Fatal(err)
		}
		plant := prodcell.NewPlant(sys, prodcell.DefaultPlantConfig())
		ctl, err := prodcell.NewController(sys, plant, prodcell.DefaultControlConfig())
		if err != nil {
			b.Fatal(err)
		}
		rep := ctl.RunCycle()
		for th, err := range rep.Outcomes {
			if err != nil {
				b.Fatalf("%s: %v", th, err)
			}
		}
		vsec = sys.Now().Seconds()
	}
	b.ReportMetric(vsec, "vsec")
}

// BenchmarkLemma1 measures experiment E6 at nesting depth 3.
func BenchmarkLemma1Depth3(b *testing.B) {
	b.ReportAllocs()
	var measured time.Duration
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunLemma1([]int{3},
			200*time.Millisecond, 100*time.Millisecond, 300*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		measured = rows[0].Measured
	}
	b.ReportMetric(measured.Seconds(), "vsec")
}

// BenchmarkStartActionCommit is the one-action-in-process rung: 16
// closed-loop callers each start a 3-role action whose roles commit at
// once, over the sim transport on the real clock, and wait for it. ns/op
// is wall time per action across the callers; allocs/op is per action.
func BenchmarkStartActionCommit(b *testing.B) {
	sys, err := caaction.New(caaction.WithRealTime(), caaction.WithSimTransport(0))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	spec, err := caaction.NewSpec("commit").
		Role("a", "T1").Role("b", "T2").Role("c", "T3").
		Build()
	if err != nil {
		b.Fatal(err)
	}
	ok := caaction.RoleProgram{Body: func(*caaction.Context) error { return nil }}
	progs := map[string]caaction.RoleProgram{"a": ok, "b": ok, "c": ok}

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
				if err == nil {
					h.WaitDone()
					err = h.Err()
				}
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
