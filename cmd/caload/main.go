// Command caload drives the CA-action load harness: thousands of concurrent
// action instances — clean commits, exceptional exits, abort cascades,
// resolution storms — multiplexed over a shared transport on one System,
// once per requested resolution protocol. It prints a summary and records
// the full report (throughput, p50/p99 latency, per-kind message counts,
// goroutine/heap high-water marks and the concurrency-scaling sweep) as
// JSON, the BENCH_load.json baseline committed alongside the chaos baseline.
//
// Usage:
//
//	caload                                   # default workload, all resolvers
//	caload -actions 5000 -concurrency 256    # heavier run
//	caload -transport tcp -actions 500       # over real TCP sockets
//	caload -mix commit:8,signal:1,abort:1    # custom workload composition
//	caload -sweep 64,256,1024                # concurrency-scaling sweep
//	caload -arrival 300,600,1200             # open-loop offered-load curve
//	caload -runs 3                           # record the median-of-3 run
//	caload -soak 30s                         # duration-bounded leak soak
//	caload -workers -1                       # disable the role-worker pool
//	caload -out BENCH_load.json              # where the JSON lands
//
// -runs N repeats the fixed-action run and every sweep point N times and
// records the run with the median throughput — wall-clock metrics flake
// run-to-run, and the committed baseline should be a median, not a lucky
// draw. -soak <duration> appends an endurance run per resolver: drivers
// keep starting actions for the window while goroutine/heap samples accrue,
// and caload exits non-zero when the steady-state growth trips the leak
// gates (-soak-max-goroutines, -soak-max-heap-mb).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"caaction/cluster/testnet"
	"caaction/load"
)

// resolverReport is one resolver's baseline: the standard run plus the
// optional concurrency-scaling sweep and open-loop overload curve.
type resolverReport struct {
	*load.Report
	Sweep []load.SweepPoint `json:"sweep,omitempty"`
	// OpenLoop is the offered-vs-goodput curve from -arrival: past the
	// sustainable rate, goodput must hold (bounded by the admission
	// budget) while the excess surfaces as typed rejections.
	OpenLoop []load.OpenLoopPoint `json:"open_loop,omitempty"`
	// Soak is the -soak endurance run with its leak-gate growth baselines.
	Soak *load.SoakReport `json:"soak,omitempty"`
}

type fileReport struct {
	Description string                     `json:"description"`
	Date        string                     `json:"date"`
	Resolvers   map[string]*resolverReport `json:"resolvers"`
	// Cluster is the multi-process benchmark from -cluster: round
	// throughput over N local canode processes on the batched node wire.
	Cluster *testnet.BenchReport `json:"cluster,omitempty"`
}

func parseRates(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad arrival rate %q", part)
		}
		out = append(out, r)
	}
	return out, nil
}

func parseSweep(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad sweep concurrency %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// runMedian executes the fixed-action run n times and returns the run with
// the median throughput, so every recorded wall-clock metric comes from one
// self-consistent run rather than a per-metric patchwork. A run with
// unexpected outcomes is returned immediately — correctness failures must
// not be averaged away.
func runMedian(cfg load.Config, n int) (*load.Report, error) {
	if n <= 1 {
		return load.Run(cfg)
	}
	reps := make([]*load.Report, 0, n)
	for i := 0; i < n; i++ {
		rep, err := load.Run(cfg)
		if err != nil {
			return nil, err
		}
		if len(rep.Unexpected) > 0 {
			return rep, nil
		}
		reps = append(reps, rep)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Throughput < reps[j].Throughput })
	return reps[(len(reps)-1)/2], nil
}

// sweepMedian executes the full sweep n times and keeps, per concurrency
// level, the point with the median throughput.
func sweepMedian(cfg load.Config, levels []int, n int) ([]load.SweepPoint, error) {
	if n <= 1 {
		return load.RunSweep(cfg, levels)
	}
	all := make([][]load.SweepPoint, 0, n)
	for i := 0; i < n; i++ {
		points, err := load.RunSweep(cfg, levels)
		if err != nil {
			return nil, err
		}
		all = append(all, points)
	}
	out := make([]load.SweepPoint, len(levels))
	for li := range levels {
		candidates := make([]load.SweepPoint, n)
		for ri := range all {
			candidates[ri] = all[ri][li]
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i].Throughput < candidates[j].Throughput })
		out[li] = candidates[(n-1)/2]
	}
	return out, nil
}

// writeProfile snapshots one named pprof profile to path at exit.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "caload:", err)
		return
	}
	defer func() { _ = f.Close() }()
	if name == "allocs" {
		runtime.GC() // materialise the final heap numbers
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "caload: %s profile: %v\n", name, err)
	}
}

// main defers to run so the profile-flushing defers execute before the
// process exits (os.Exit skips defers).
func main() { os.Exit(run()) }

func run() int {
	var (
		actions     = flag.Int("actions", 2000, "action instances per resolver")
		concurrency = flag.Int("concurrency", 128, "instances in flight at once")
		roles       = flag.Int("roles", 3, "roles (threads) per action")
		transport   = flag.String("transport", "sim", "transport registry name (sim, tcp)")
		latency     = flag.Duration("latency", 0, "sim transport one-way latency")
		seed        = flag.Int64("seed", 1, "workload composition seed")
		mixFlag     = flag.String("mix", "", "workload composition, e.g. commit:6,signal:2,abort:1,storm:1 ('' = default mix)")
		workers     = flag.Int("workers", 0, "role-worker pool size (0 auto-sizes at concurrency*roles, negative disables the pool)")
		sweepFlag   = flag.String("sweep", "", "comma-separated concurrency levels for a scaling sweep, e.g. 64,256,1024 ('' disables)")
		sweepAct    = flag.Int("sweep-actions", 0, "action instances per sweep point (0 = -actions)")
		arrival     = flag.String("arrival", "", "comma-separated open-loop arrival rates in actions/s, e.g. 300,600,1200 ('' disables); arrivals are clock-driven, independent of completions")
		arrivalDur  = flag.Duration("arrival-duration", 5*time.Second, "offering window per open-loop rate")
		maxInFlight = flag.Int("max-inflight", 0, "admission budget for open-loop points (0 = the harness default, negative disables the budget)")
		resolvers   = flag.String("resolvers", "coordinated,cr86,r96", "comma-separated resolution protocols")
		runs        = flag.Int("runs", 1, "repeat the fixed-action run and each sweep point this many times, recording the median-of-N by throughput")
		soak        = flag.Duration("soak", 0, "duration-bounded endurance run per resolver with interval-sampled leak gates (0 disables)")
		soakSample  = flag.Duration("soak-sample", 0, "soak leak-sample interval (0 derives duration/16, clamped to [250ms, 5s])")
		soakGor     = flag.Int("soak-max-goroutines", 256, "soak leak gate: maximum steady-state goroutine growth (0 disables)")
		soakHeapMB  = flag.Int("soak-max-heap-mb", 64, "soak leak gate: maximum steady-state heap growth in MiB (0 disables)")
		out         = flag.String("out", "BENCH_load.json", "JSON report path ('' disables)")

		clusterNodes = flag.Int("cluster", 0, "run the multi-process cluster benchmark over this many local canode processes (0 disables); records the 'cluster' report section")
		clusterBin   = flag.String("cluster-bin", "", "canode binary for -cluster (required with -cluster)")
		clusterRnds  = flag.Int("cluster-rounds", 48, "shared action rounds per cluster measurement")
		clusterConc  = flag.Int("cluster-concurrency", 24, "cluster rounds in flight at once")
		clusterRuns  = flag.Int("cluster-runs", 0, "median-of-N cluster measurements (0 = -runs)")

		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the whole run here ('' disables)")
		memProfile   = flag.String("memprofile", "", "write an allocation profile at exit here ('' disables)")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex-contention profile at exit here ('' disables)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "caload:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "caload: cpuprofile:", err)
			return 2
		}
		defer func() { pprof.StopCPUProfile(); _ = f.Close() }()
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
		defer writeProfile("mutex", *mutexProfile)
	}
	if *memProfile != "" {
		defer writeProfile("allocs", *memProfile)
	}

	mix, err := load.ParseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "caload:", err)
		return 2
	}
	sweep, err := parseSweep(*sweepFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "caload:", err)
		return 2
	}
	rates, err := parseRates(*arrival)
	if err != nil {
		fmt.Fprintln(os.Stderr, "caload:", err)
		return 2
	}

	file := fileReport{
		Description: "Load-harness baseline: concurrent CA actions over a shared transport. Regenerate with `go build -o /tmp/canode ./cmd/canode && go run ./cmd/caload -actions 6000 -runs 3 -sweep 64,256,1024,4096 -arrival 4000,12000,24000 -arrival-duration 3s -soak 30s -cluster 3 -cluster-bin /tmp/canode -cluster-runs 3`.",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Resolvers:   make(map[string]*resolverReport),
	}
	failed := false
	for _, resolver := range strings.Split(*resolvers, ",") {
		resolver = strings.TrimSpace(resolver)
		if resolver == "" {
			continue
		}
		cfg := load.Config{
			Actions:     *actions,
			Concurrency: *concurrency,
			Roles:       *roles,
			Resolver:    resolver,
			Transport:   *transport,
			Latency:     *latency,
			Seed:        *seed,
			Mix:         mix,
			Workers:     *workers,
		}
		rep, err := runMedian(cfg, *runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "caload: %s: %v\n", resolver, err)
			return 2
		}
		rr := &resolverReport{Report: rep}
		fmt.Printf("%-12s %6d actions  %9.0f actions/s  p50 %.2fms  p99 %.2fms  %7.0f allocs/action  %5d goroutines  outcomes %v\n",
			resolver, cfg.Actions, rep.Throughput, rep.Latency.P50, rep.Latency.P99,
			rep.AllocsPerAction, rep.GoroutineHighWater, rep.Outcomes)
		if len(rep.Unexpected) > 0 {
			// Keep going and still write the report: the JSON (with its
			// Unexpected list) is exactly the diagnostic a failed run needs.
			fmt.Fprintf(os.Stderr, "caload: %s: %d unexpected outcomes, e.g. %s\n",
				resolver, len(rep.Unexpected), rep.Unexpected[0])
			failed = true
		}
		if len(sweep) > 0 {
			sweepCfg := cfg
			if *sweepAct > 0 {
				sweepCfg.Actions = *sweepAct
			}
			points, err := sweepMedian(sweepCfg, sweep, *runs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "caload: %s: %v\n", resolver, err)
				failed = true
			}
			rr.Sweep = points
			for _, p := range points {
				fmt.Printf("  sweep c=%-5d %6d actions  %9.0f actions/s  p99 %.2fms  %7.0f allocs/action  %5d goroutines  heap %0.1fMiB\n",
					p.Concurrency, p.Actions, p.Throughput, p.P99Ms, p.AllocsPerAction,
					p.GoroutineHighWater, float64(p.PeakHeapBytes)/(1<<20))
			}
		}
		if len(rates) > 0 {
			points, err := load.RunOpenLoop(load.OpenLoopConfig{
				Config:      cfg,
				Rates:       rates,
				Duration:    *arrivalDur,
				MaxInFlight: *maxInFlight,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "caload: %s: %v\n", resolver, err)
				failed = true
			}
			rr.OpenLoop = points
			for _, p := range points {
				fmt.Printf("  open  r=%-6.0f offered %6d  goodput %8.0f actions/s  rejected %6d  errors %3d  p50 %.2fms  p99 %.2fms  budget %d\n",
					p.OfferedRate, p.Offered, p.Goodput, p.Rejected, p.Errors, p.P50Ms, p.P99Ms, p.MaxInFlight)
				if p.Errors > 0 {
					fmt.Fprintf(os.Stderr, "caload: %s: open-loop rate %v: %d errored arrivals\n", resolver, p.OfferedRate, p.Errors)
					failed = true
				}
			}
		}
		if *soak > 0 {
			srep, err := load.RunSoak(load.SoakConfig{
				Config:      cfg,
				Duration:    *soak,
				SampleEvery: *soakSample,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "caload: %s: soak: %v\n", resolver, err)
				return 2
			}
			rr.Soak = srep
			fmt.Printf("  soak  %6.1fs %8d actions  %9.0f actions/s  goroutine growth %+4d  heap growth %+6.1fMiB  %d samples\n",
				srep.WallSecs, srep.Actions, srep.Throughput, srep.GoroutineGrowth,
				float64(srep.HeapGrowthBytes)/(1<<20), len(srep.Samples))
			if srep.UnexpectedCount > 0 {
				fmt.Fprintf(os.Stderr, "caload: %s: soak: %d unexpected outcomes, e.g. %s\n",
					resolver, srep.UnexpectedCount, srep.Unexpected[0])
				failed = true
			}
			if err := srep.LeakCheck(*soakGor, int64(*soakHeapMB)<<20); err != nil {
				fmt.Fprintf(os.Stderr, "caload: %s: %v\n", resolver, err)
				failed = true
			}
		}
		file.Resolvers[resolver] = rr
	}
	if *clusterNodes > 0 {
		if *clusterBin == "" {
			fmt.Fprintln(os.Stderr, "caload: -cluster requires -cluster-bin (a built canode binary)")
			return 2
		}
		benchRuns := *clusterRuns
		if benchRuns <= 0 {
			benchRuns = *runs
		}
		crep, err := testnet.Bench(testnet.BenchConfig{
			Binary:      *clusterBin,
			Nodes:       *clusterNodes,
			Rounds:      *clusterRnds,
			Concurrency: *clusterConc,
			Runs:        benchRuns,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "caload: cluster:", err)
			return 2
		}
		file.Cluster = crep
		m := crep.Batched
		fmt.Printf("  cluster %d nodes  %4d rounds  %8.1f rounds/s  p50 %.2fms  p99 %.2fms  %8.0f driver allocs/round  batch frames %d  stalls %d  (median of %d)\n",
			crep.Nodes, m.Config.Rounds, m.Throughput, m.Latency.P50, m.Latency.P99,
			m.DriverAllocsPerRound, m.BatchFrames, m.CreditStalls, crep.Runs)
	}
	if *out != "" {
		blob, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "caload:", err)
			return 2
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "caload:", err)
			return 2
		}
		fmt.Println("wrote", *out)
	}
	if failed {
		return 1
	}
	return 0
}
