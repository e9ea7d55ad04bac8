// Command perfgate is the CI performance-regression gate: it compares a
// fresh `go test -bench` run and a fresh caload report against the
// committed baselines (BENCH_chaos.json, BENCH_load.json) and fails the
// build when a hot-path metric regresses beyond tolerance.
//
// Gated metrics:
//
//   - allocs_per_op (benchmarks) — hardware-independent, so it is compared
//     across machines at the standard tolerance. Only regressions fail;
//     improvements are reported (and should be committed as the new
//     baseline).
//   - virtual_seconds / messages (benchmarks) — deterministic paper anchors
//     (Fig9/Fig12 virtual times, §3.3.3 message counts); they must match
//     the baseline within the much tighter -exact-tolerance in either
//     direction.
//   - actions_per_second, p99_ms and allocs_per_action (load report, per
//     resolver) — throughput may not drop and p99 may not rise beyond
//     tolerance.
//   - the concurrency-scaling sweep (load report, per resolver and sweep
//     concurrency): every baselined sweep point's throughput/p99 is gated
//     at the separate -load-tolerance (wall-clock numbers are hardware-
//     sensitive, so CI runs them looser than the allocation gates) and its
//     allocs_per_action at the standard -tolerance. A missing sweep point
//     fails the gate.
//   - the open-loop overload curve (load report, per resolver and offered
//     rate, from caload -arrival): goodput may not drop and admitted-work
//     p99 may not rise beyond -load-tolerance on any baselined rate the
//     run re-measured; errored arrivals fail outright. CI may re-measure
//     a subset of the curve, but at least one baselined rate must be
//     present.
//   - the scalability watermarks (goroutine_high_water, peak_heap_bytes;
//     main run and every sweep point): sampled process-wide maxima that
//     catch leaked workers and runaway buffering before they sink
//     throughput. Gated with absolute slacks (-goroutine-slack,
//     -heap-slack-mb) on top of the relative tolerance, since scheduler
//     and GC timing move small watermarks run-to-run.
//   - the soak leak gates (load report, per resolver, from caload -soak):
//     steady-state goroutine/heap growth under sustained load may not
//     exceed the baseline growth beyond the absolute slacks, and a
//     baselined soak missing from the run fails the gate.
//
// ns/op and B/op are recorded in the comparison artifact but not gated
// (they vary with hardware).
//
// -load accepts several comma-separated fresh reports; the gate then
// compares the per-metric MEDIAN across them, so one noisy run cannot fail
// (or pass) a wall-clock gate on its own. caload -runs 3 folds the same
// median at generation time instead, inside one report.
//
// Usage (what .github/workflows/ci.yml runs):
//
//	go test -run xxx -bench . -benchmem ./... | tee bench.out
//	go run ./cmd/caload -actions 6000 -sweep 64,256,1024,4096 -soak 30s -out BENCH_load_new.json
//	go run ./cmd/perfgate -bench bench.out -load BENCH_load_new.json \
//	    -load-tolerance 0.5 -report perf_comparison.json
//
// Regenerating baselines after an intentional perf change (-actions 6000
// matters: p99 is the sample's tail, and smaller runs flake the gate;
// -runs 3 records the median-of-three run):
//
//	go test -run xxx -bench . -benchmem ./...              # update BENCH_chaos.json numbers
//	go run ./cmd/caload -actions 6000 -runs 3 -sweep 64,256,1024,4096 -soak 30s   # rewrites BENCH_load.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchBaseline mirrors BENCH_chaos.json.
type benchBaseline struct {
	Benchmarks []struct {
		Pkg            string  `json:"pkg"`
		Name           string  `json:"name"`
		NsPerOp        float64 `json:"ns_per_op"`
		VirtualSeconds float64 `json:"virtual_seconds"`
		Messages       float64 `json:"messages"`
		BytesPerOp     float64 `json:"bytes_per_op"`
		AllocsPerOp    float64 `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

// loadBaseline mirrors BENCH_load.json (only the gated fields).
type loadBaseline struct {
	Resolvers map[string]loadResolver `json:"resolvers"`
	Cluster   *clusterBaseline        `json:"cluster"`
}

// clusterBaseline is the multi-process benchmark recorded by caload
// -cluster.
type clusterBaseline struct {
	Nodes   int          `json:"nodes"`
	Batched *clusterMode `json:"batched"`
}

// clusterMode is the batched node wire's gated metrics.
type clusterMode struct {
	Throughput float64 `json:"rounds_per_second"`
	Latency    struct {
		P99 float64 `json:"p99_ms"`
	} `json:"latency"`
	DriverAllocsPerRound float64 `json:"driver_allocs_per_round"`
	BatchFrames          float64 `json:"batch_frames"`
	CreditStalls         float64 `json:"credit_stalls"`
}

// loadResolver is one resolver's gated metrics.
type loadResolver struct {
	Throughput         float64 `json:"actions_per_second"`
	AllocsPerAction    float64 `json:"allocs_per_action"`
	GoroutineHighWater float64 `json:"goroutine_high_water"`
	PeakHeapBytes      float64 `json:"peak_heap_bytes"`
	Latency            struct {
		P99 float64 `json:"p99_ms"`
	} `json:"latency"`
	Sweep    []sweepPoint    `json:"sweep"`
	OpenLoop []openLoopPoint `json:"open_loop"`
	Soak     *soakBaseline   `json:"soak"`
}

// sweepPoint is one concurrency level of the scaling sweep recorded by
// caload -sweep.
type sweepPoint struct {
	Concurrency        int     `json:"concurrency"`
	Throughput         float64 `json:"actions_per_second"`
	AllocsPerAction    float64 `json:"allocs_per_action"`
	P99                float64 `json:"p99_ms"`
	GoroutineHighWater float64 `json:"goroutine_high_water"`
	PeakHeapBytes      float64 `json:"peak_heap_bytes"`
}

// soakBaseline is the duration-bounded endurance run recorded by caload
// -soak: the leak gates compare steady-state growth, which a healthy run
// holds near zero regardless of the window length, so the growth baselines
// transfer across hardware better than any throughput number.
type soakBaseline struct {
	Throughput      float64 `json:"actions_per_second"`
	GoroutineGrowth float64 `json:"goroutine_growth"`
	HeapGrowthBytes float64 `json:"heap_growth_bytes"`
	UnexpectedCount float64 `json:"unexpected_count"`
}

// openLoopPoint is one offered rate of the open-loop overload curve
// recorded by caload -arrival.
type openLoopPoint struct {
	OfferedRate float64 `json:"offered_rate"`
	Goodput     float64 `json:"goodput_actions_per_second"`
	Rejected    int     `json:"rejected"`
	Errors      int     `json:"errors"`
	P99         float64 `json:"p99_ms"`
}

// benchResult is one parsed `go test -bench` output line.
type benchResult struct {
	nsPerOp     float64
	vsec        float64
	msgs        float64
	bytesPerOp  float64
	allocsPerOp float64
	hasAllocs   bool
}

// row is one comparison in the artifact.
type row struct {
	Subject  string  `json:"subject"` // "bench:<Name>" or "load:<resolver>"
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	DeltaPct float64 `json:"delta_pct"`
	Status   string  `json:"status"` // "ok", "improved", "FAIL", "info"
}

type gate struct {
	rows   []row
	failed bool
}

// check records one comparison. dir > 0 means "larger is worse" (allocs,
// p99), dir < 0 means "smaller is worse" (throughput), dir == 0 means the
// value must match within tolerance in either direction (paper anchors).
//
// slack is an absolute grace on top of the relative tolerance for dir > 0
// metrics: the comparison fails only when cur exceeds BOTH base*(1+tol)
// and base+slack. Tail latencies at low concurrency are a handful of
// milliseconds, where a single GC pause moves the percentile by
// double-digit percentages run-to-run; the slack keeps those physically
// insignificant swings from flaking the gate while real regressions clear
// both bars. Pass 0 for a purely relative gate.
func (g *gate) check(subject, metric string, base, cur, tol float64, dir int, slack float64) {
	delta := 0.0
	if base != 0 {
		delta = (cur - base) / math.Abs(base) * 100
	}
	status := "ok"
	switch {
	case dir > 0 && cur > base*(1+tol) && cur > base+slack:
		status = "FAIL"
	case dir < 0 && cur < base*(1-tol):
		status = "FAIL"
	case dir == 0 && math.Abs(cur-base) > math.Abs(base)*tol:
		status = "FAIL"
	case dir > 0 && cur < base*(1-tol):
		status = "improved"
	case dir < 0 && cur > base*(1+tol):
		status = "improved"
	}
	if status == "FAIL" {
		g.failed = true
	}
	g.rows = append(g.rows, row{Subject: subject, Metric: metric,
		Baseline: base, Current: cur, DeltaPct: delta, Status: status})
}

func (g *gate) info(subject, metric string, base, cur float64) {
	delta := 0.0
	if base != 0 {
		delta = (cur - base) / math.Abs(base) * 100
	}
	g.rows = append(g.rows, row{Subject: subject, Metric: metric,
		Baseline: base, Current: cur, DeltaPct: delta, Status: "info"})
}

func (g *gate) fail(subject, why string) {
	g.failed = true
	g.rows = append(g.rows, row{Subject: subject, Metric: why, Status: "FAIL"})
}

// benchLine matches e.g.
//
//	BenchmarkFig9Baseline-4   300   935295 ns/op   94.00 vsec   275675 B/op   3306 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBenchFile returns results keyed "pkg|name" (pkg from the preceding
// "pkg:" header line), so same-named benchmarks in different packages never
// collide.
func parseBenchFile(path string) (map[string]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	out := make(map[string]benchResult)
	pkg := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var r benchResult
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.nsPerOp = v
			case "vsec":
				r.vsec = v
			case "msgs":
				r.msgs = v
			case "B/op":
				r.bytesPerOp = v
			case "allocs/op":
				r.allocsPerOp = v
				r.hasAllocs = true
			}
		}
		out[pkg+"|"+m[1]] = r
	}
	return out, sc.Err()
}

func readJSON(path string, into any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, into)
}

// median returns the lower median of vs — the same element a caload
// -runs fold picks — or zero for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	return vs[(len(vs)-1)/2]
}

// medianLoad folds N fresh load reports (perfgate -load a.json,b.json,...)
// into one per-metric median view: wall-clock metrics — throughput, p99,
// goodput — flake run-to-run on shared CI runners, and gating their median
// across independent runs keeps one noisy run from failing (or passing) the
// build. Deterministic-ish metrics (allocations, watermarks) take the same
// median, which for stable metrics is a no-op. A resolver, sweep point or
// open-loop rate missing from some runs is medianed over the runs that
// measured it; errored open-loop arrivals take the maximum, so no run's
// failure is averaged away.
func medianLoad(reports []loadBaseline) loadBaseline {
	if len(reports) == 1 {
		return reports[0]
	}
	out := loadBaseline{Resolvers: make(map[string]loadResolver)}
	names := make(map[string]bool)
	for _, r := range reports {
		for n := range r.Resolvers {
			names[n] = true
		}
	}
	for name := range names {
		var entries []loadResolver
		for _, r := range reports {
			if e, ok := r.Resolvers[name]; ok {
				entries = append(entries, e)
			}
		}
		fold := func(f func(loadResolver) float64) float64 {
			vs := make([]float64, 0, len(entries))
			for _, e := range entries {
				vs = append(vs, f(e))
			}
			return median(vs)
		}
		var m loadResolver
		m.Throughput = fold(func(e loadResolver) float64 { return e.Throughput })
		m.AllocsPerAction = fold(func(e loadResolver) float64 { return e.AllocsPerAction })
		m.GoroutineHighWater = fold(func(e loadResolver) float64 { return e.GoroutineHighWater })
		m.PeakHeapBytes = fold(func(e loadResolver) float64 { return e.PeakHeapBytes })
		m.Latency.P99 = fold(func(e loadResolver) float64 { return e.Latency.P99 })

		byConc := make(map[int][]sweepPoint)
		var concOrder []int
		for _, e := range entries {
			for _, p := range e.Sweep {
				if _, seen := byConc[p.Concurrency]; !seen {
					concOrder = append(concOrder, p.Concurrency)
				}
				byConc[p.Concurrency] = append(byConc[p.Concurrency], p)
			}
		}
		for _, conc := range concOrder {
			ps := byConc[conc]
			foldP := func(f func(sweepPoint) float64) float64 {
				vs := make([]float64, 0, len(ps))
				for _, p := range ps {
					vs = append(vs, f(p))
				}
				return median(vs)
			}
			m.Sweep = append(m.Sweep, sweepPoint{
				Concurrency:        conc,
				Throughput:         foldP(func(p sweepPoint) float64 { return p.Throughput }),
				AllocsPerAction:    foldP(func(p sweepPoint) float64 { return p.AllocsPerAction }),
				P99:                foldP(func(p sweepPoint) float64 { return p.P99 }),
				GoroutineHighWater: foldP(func(p sweepPoint) float64 { return p.GoroutineHighWater }),
				PeakHeapBytes:      foldP(func(p sweepPoint) float64 { return p.PeakHeapBytes }),
			})
		}

		byRate := make(map[float64][]openLoopPoint)
		var rateOrder []float64
		for _, e := range entries {
			for _, p := range e.OpenLoop {
				if _, seen := byRate[p.OfferedRate]; !seen {
					rateOrder = append(rateOrder, p.OfferedRate)
				}
				byRate[p.OfferedRate] = append(byRate[p.OfferedRate], p)
			}
		}
		for _, rate := range rateOrder {
			ps := byRate[rate]
			foldP := func(f func(openLoopPoint) float64) float64 {
				vs := make([]float64, 0, len(ps))
				for _, p := range ps {
					vs = append(vs, f(p))
				}
				return median(vs)
			}
			mp := openLoopPoint{
				OfferedRate: rate,
				Goodput:     foldP(func(p openLoopPoint) float64 { return p.Goodput }),
				P99:         foldP(func(p openLoopPoint) float64 { return p.P99 }),
				Rejected:    int(foldP(func(p openLoopPoint) float64 { return float64(p.Rejected) })),
			}
			for _, p := range ps {
				if p.Errors > mp.Errors {
					mp.Errors = p.Errors
				}
			}
			m.OpenLoop = append(m.OpenLoop, mp)
		}

		var soaks []soakBaseline
		for _, e := range entries {
			if e.Soak != nil {
				soaks = append(soaks, *e.Soak)
			}
		}
		if len(soaks) > 0 {
			foldS := func(f func(soakBaseline) float64) float64 {
				vs := make([]float64, 0, len(soaks))
				for _, s := range soaks {
					vs = append(vs, f(s))
				}
				return median(vs)
			}
			s := soakBaseline{
				Throughput:      foldS(func(x soakBaseline) float64 { return x.Throughput }),
				GoroutineGrowth: foldS(func(x soakBaseline) float64 { return x.GoroutineGrowth }),
				HeapGrowthBytes: foldS(func(x soakBaseline) float64 { return x.HeapGrowthBytes }),
			}
			for _, x := range soaks {
				if x.UnexpectedCount > s.UnexpectedCount {
					s.UnexpectedCount = x.UnexpectedCount
				}
			}
			m.Soak = &s
		}
		out.Resolvers[name] = m
	}
	// Rather than a per-metric patchwork, the cluster fold keeps the whole
	// run with the median batched throughput, so its metrics stay one
	// run's self-consistent set.
	var clusters []*clusterBaseline
	for _, r := range reports {
		if r.Cluster != nil && r.Cluster.Batched != nil {
			clusters = append(clusters, r.Cluster)
		}
	}
	if len(clusters) > 0 {
		sort.Slice(clusters, func(i, j int) bool {
			return clusters[i].Batched.Throughput < clusters[j].Batched.Throughput
		})
		out.Cluster = clusters[(len(clusters)-1)/2]
	}
	return out
}

func main() {
	var (
		benchFile      = flag.String("bench", "", "go test -bench output to gate ('' skips the bench gate)")
		benchBase      = flag.String("bench-baseline", "BENCH_chaos.json", "committed benchmark baseline")
		loadFile       = flag.String("load", "", "fresh caload JSON report(s) to gate, comma-separated; several reports gate their per-metric median ('' skips the load gate)")
		loadBase       = flag.String("load-baseline", "BENCH_load.json", "committed load baseline")
		tolerance      = flag.Float64("tolerance", 0.25, "fractional tolerance for perf metrics (allocs, throughput, p99)")
		loadTol        = flag.Float64("load-tolerance", 0, "override tolerance for the wall-clock load metrics (actions_per_second, p99); 0 inherits -tolerance. Throughput and tail latency are hardware-sensitive, so a gate whose baseline was recorded on different hardware may need this looser than the allocation gates")
		exactTol       = flag.Float64("exact-tolerance", 0.02, "tolerance for deterministic metrics (virtual seconds, message counts)")
		p99Slack       = flag.Float64("p99-slack-ms", 10, "absolute slack for p99 gates: a p99 regression fails only when it exceeds the load tolerance AND baseline+slack (low-concurrency tails are a few ms, where one GC pause flakes a purely relative gate)")
		gorSlack       = flag.Float64("goroutine-slack", 128, "absolute slack for the goroutine watermark and soak-growth gates: a regression fails only when it exceeds the tolerance AND baseline+slack (scheduler timing moves small counts by tens run-to-run)")
		heapSlackMB    = flag.Float64("heap-slack-mb", 32, "absolute slack in MiB for the heap watermark and soak-growth gates (GC pacing moves the live-heap peak by tens of MiB run-to-run)")
		reportPath     = flag.String("report", "", "write the comparison artifact JSON here ('' disables)")
		requireAllocs  = flag.Bool("require-allocs", true, "fail when a baselined benchmark reports no allocs/op (run with -benchmem)")
		requireCluster = flag.Bool("require-cluster", false, "fail when the baseline has a cluster section the fresh run did not re-measure (CI's cluster-bench job sets this; other jobs skip the multi-process benchmark)")
		clusterOnly    = flag.Bool("cluster-only", false, "gate only the load baseline's cluster section, exempting the per-resolver sections (CI's cluster-bench job runs caload with -resolvers '' and sets this; the perf-gate job still gates the resolvers)")
	)
	flag.Parse()

	g := &gate{}
	if *benchFile != "" {
		results, err := parseBenchFile(*benchFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfgate: parse bench:", err)
			os.Exit(2)
		}
		var base benchBaseline
		if err := readJSON(*benchBase, &base); err != nil {
			fmt.Fprintln(os.Stderr, "perfgate: read baseline:", err)
			os.Exit(2)
		}
		for _, b := range base.Benchmarks {
			r, ok := results[b.Pkg+"|"+b.Name]
			subject := "bench:" + b.Name
			if !ok {
				g.fail(subject, "benchmark missing from run")
				continue
			}
			if b.AllocsPerOp > 0 {
				if r.hasAllocs {
					g.check(subject, "allocs_per_op", b.AllocsPerOp, r.allocsPerOp, *tolerance, +1, 0)
				} else if *requireAllocs {
					g.fail(subject, "no allocs/op in run (use -benchmem)")
				}
			}
			if b.VirtualSeconds > 0 {
				g.check(subject, "virtual_seconds", b.VirtualSeconds, r.vsec, *exactTol, 0, 0)
			}
			if b.Messages > 0 {
				g.check(subject, "messages", b.Messages, r.msgs, *exactTol, 0, 0)
			}
			g.info(subject, "ns_per_op", b.NsPerOp, r.nsPerOp)
			if b.BytesPerOp > 0 && r.bytesPerOp > 0 {
				g.info(subject, "bytes_per_op", b.BytesPerOp, r.bytesPerOp)
			}
		}
	}

	if *loadTol == 0 {
		*loadTol = *tolerance
	}
	if *loadFile != "" {
		var fresh []loadBaseline
		for _, path := range strings.Split(*loadFile, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			var r loadBaseline
			if err := readJSON(path, &r); err != nil {
				fmt.Fprintln(os.Stderr, "perfgate: read load report:", err)
				os.Exit(2)
			}
			fresh = append(fresh, r)
		}
		if len(fresh) == 0 {
			fmt.Fprintln(os.Stderr, "perfgate: -load named no readable reports")
			os.Exit(2)
		}
		cur := medianLoad(fresh)
		var base loadBaseline
		if err := readJSON(*loadBase, &base); err != nil {
			fmt.Fprintln(os.Stderr, "perfgate: read load baseline:", err)
			os.Exit(2)
		}
		heapSlack := *heapSlackMB * (1 << 20)
		if *clusterOnly {
			// The cluster-bench job measures only the multi-process section;
			// dropping the baseline's resolver sections here exempts them
			// without loosening any gate the perf-gate job applies.
			base.Resolvers = nil
		}
		for name, b := range base.Resolvers {
			subject := "load:" + name
			c, ok := cur.Resolvers[name]
			if !ok {
				g.fail(subject, "resolver missing from run")
				continue
			}
			g.check(subject, "actions_per_second", b.Throughput, c.Throughput, *loadTol, -1, 0)
			g.check(subject, "p99_ms", b.Latency.P99, c.Latency.P99, *loadTol, +1, *p99Slack)
			if b.AllocsPerAction > 0 && c.AllocsPerAction > 0 {
				g.check(subject, "allocs_per_action", b.AllocsPerAction, c.AllocsPerAction, *tolerance, +1, 0)
			}
			// Scalability watermarks: a leaked worker set or runaway buffer
			// shows up here long before it sinks throughput.
			if b.GoroutineHighWater > 0 && c.GoroutineHighWater > 0 {
				g.check(subject, "goroutine_high_water", b.GoroutineHighWater, c.GoroutineHighWater, *tolerance, +1, *gorSlack)
			}
			if b.PeakHeapBytes > 0 && c.PeakHeapBytes > 0 {
				g.check(subject, "peak_heap_bytes", b.PeakHeapBytes, c.PeakHeapBytes, *loadTol, +1, heapSlack)
			}
			// Concurrency-scaling sweep: every baselined point must exist in
			// the run and hold its throughput/p99 within the (hardware-
			// sensitive) load tolerance and its allocation rate within the
			// standard tolerance. A vanished point means the sweep was not
			// re-run — that is a gate failure, not a skip, so the scaling
			// win stays locked in.
			curSweep := make(map[int]sweepPoint, len(c.Sweep))
			for _, p := range c.Sweep {
				curSweep[p.Concurrency] = p
			}
			for _, bp := range b.Sweep {
				subj := fmt.Sprintf("%s@c%d", subject, bp.Concurrency)
				cp, ok := curSweep[bp.Concurrency]
				if !ok {
					g.fail(subj, "sweep point missing from run")
					continue
				}
				g.check(subj, "actions_per_second", bp.Throughput, cp.Throughput, *loadTol, -1, 0)
				if bp.P99 > 0 && cp.P99 > 0 {
					g.check(subj, "p99_ms", bp.P99, cp.P99, *loadTol, +1, *p99Slack)
				}
				if bp.AllocsPerAction > 0 && cp.AllocsPerAction > 0 {
					g.check(subj, "allocs_per_action", bp.AllocsPerAction, cp.AllocsPerAction, *tolerance, +1, 0)
				}
				if bp.GoroutineHighWater > 0 && cp.GoroutineHighWater > 0 {
					g.check(subj, "goroutine_high_water", bp.GoroutineHighWater, cp.GoroutineHighWater, *tolerance, +1, *gorSlack)
				}
				if bp.PeakHeapBytes > 0 && cp.PeakHeapBytes > 0 {
					g.check(subj, "peak_heap_bytes", bp.PeakHeapBytes, cp.PeakHeapBytes, *loadTol, +1, heapSlack)
				}
			}
			// Open-loop overload curve: every baselined offered rate the run
			// also measured must hold its goodput within the load tolerance
			// and its (admitted-work) p99 bounded. Unlike the sweep, CI may
			// deliberately re-measure only a subset of the curve — the gate
			// compares the intersection — but a baselined curve with NO
			// re-measured point means the overload contract went untested,
			// which fails the gate.
			if len(b.OpenLoop) > 0 {
				curOL := make(map[float64]openLoopPoint, len(c.OpenLoop))
				for _, p := range c.OpenLoop {
					curOL[p.OfferedRate] = p
				}
				matched := 0
				for _, bp := range b.OpenLoop {
					cp, ok := curOL[bp.OfferedRate]
					if !ok {
						continue
					}
					matched++
					subj := fmt.Sprintf("%s@r%g", subject, bp.OfferedRate)
					g.check(subj, "goodput_actions_per_second", bp.Goodput, cp.Goodput, *loadTol, -1, 0)
					if bp.P99 > 0 && cp.P99 > 0 {
						g.check(subj, "p99_ms", bp.P99, cp.P99, *loadTol, +1, *p99Slack)
					}
					g.info(subj, "rejected", float64(bp.Rejected), float64(cp.Rejected))
					if cp.Errors > 0 {
						g.fail(subj, fmt.Sprintf("%d errored arrivals in open-loop run", cp.Errors))
					}
				}
				if matched == 0 {
					g.fail(subject, "no baselined open-loop point re-measured (run caload -arrival with a baselined rate)")
				}
			}
			// Soak leak gates: steady-state goroutine/heap growth under
			// sustained load may not exceed the baseline beyond the absolute
			// slacks. Growth baselines sit near zero, so the relative
			// tolerance is meaningless here — the slack IS the gate. Like a
			// vanished sweep point, a baselined soak the run skipped fails:
			// the leak contract must be re-tested, not waved through.
			if b.Soak != nil {
				subj := subject + "@soak"
				if c.Soak == nil {
					g.fail(subj, "soak missing from run (run caload -soak)")
				} else {
					g.check(subj, "goroutine_growth", b.Soak.GoroutineGrowth, c.Soak.GoroutineGrowth, 0, +1, *gorSlack)
					g.check(subj, "heap_growth_bytes", b.Soak.HeapGrowthBytes, c.Soak.HeapGrowthBytes, 0, +1, heapSlack)
					g.info(subj, "actions_per_second", b.Soak.Throughput, c.Soak.Throughput)
					if c.Soak.UnexpectedCount > 0 {
						g.fail(subj, fmt.Sprintf("%0.f unexpected outcomes in soak run", c.Soak.UnexpectedCount))
					}
				}
			}
		}
		// Multi-process cluster benchmark (caload -cluster): the batched
		// node wire may not regress against the baseline. Only CI's
		// cluster-bench job re-measures this section (it spawns a process
		// fleet), so a fresh report without it skips the gate unless
		// -require-cluster insists.
		if base.Cluster != nil && base.Cluster.Batched != nil {
			subject := "cluster:batched"
			switch {
			case cur.Cluster == nil || cur.Cluster.Batched == nil:
				if *requireCluster {
					g.fail(subject, "cluster benchmark missing from run (run caload -cluster)")
				}
			default:
				b, c := base.Cluster.Batched, cur.Cluster.Batched
				g.check(subject, "rounds_per_second", b.Throughput, c.Throughput, *loadTol, -1, 0)
				if b.Latency.P99 > 0 && c.Latency.P99 > 0 {
					g.check(subject, "p99_ms", b.Latency.P99, c.Latency.P99, *loadTol, +1, *p99Slack)
				}
				if b.DriverAllocsPerRound > 0 && c.DriverAllocsPerRound > 0 {
					g.check(subject, "driver_allocs_per_round", b.DriverAllocsPerRound, c.DriverAllocsPerRound, *tolerance, +1, 0)
				}
				if c.BatchFrames == 0 {
					g.fail(subject, "no batched frames flushed — the node wire was not exercised")
				}
			}
		}
	}

	if len(g.rows) == 0 {
		fmt.Fprintln(os.Stderr, "perfgate: nothing to compare (pass -bench and/or -load)")
		os.Exit(2)
	}

	for _, r := range g.rows {
		fmt.Printf("%-10s %-38s %-18s base %14.2f  now %14.2f  %+7.1f%%\n",
			r.Status, r.Subject, r.Metric, r.Baseline, r.Current, r.DeltaPct)
	}
	if *reportPath != "" {
		blob, err := json.MarshalIndent(struct {
			Failed bool  `json:"failed"`
			Rows   []row `json:"rows"`
		}{g.failed, g.rows}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfgate:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*reportPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfgate:", err)
			os.Exit(2)
		}
	}
	if g.failed {
		fmt.Println("perfgate: FAIL — performance regressed beyond tolerance (or a baselined benchmark vanished)")
		os.Exit(1)
	}
	fmt.Println("perfgate: ok")
}
