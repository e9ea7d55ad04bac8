// Package load is the CA-action runtime's load harness: it drives thousands
// of concurrent action instances through one System over a shared transport
// (the concurrent multi-action runtime behind System.StartAction) with a
// configurable mix of outcomes — clean commits, exceptional exits through
// the signalling protocol, abort cascades through nested actions, and
// resolution storms where every role raises at once — and reports wall-clock
// throughput, per-action latency percentiles and per-kind protocol message
// counts.
//
// The harness runs on the real clock: unlike the chaos engine (which proves
// protocol properties in deterministic virtual time), load measures what the
// hardware actually does. The workload composition is still deterministic in
// Config.Seed, so runs are comparable across commits; cmd/caload records
// them as BENCH_load.json.
package load

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caaction"
)

// Action kinds the mix is drawn from.
const (
	// KindCommit: every role computes briefly and the action exits cleanly.
	KindCommit = "commit"
	// KindSignal: one role raises a declared exception with no handler; the
	// action exits exceptionally, signalling it as ε to every caller.
	KindSignal = "signal"
	// KindAbort: every role but one descends into a nested action; the
	// remaining role raises in the enclosing action, forcing the §3.3.2
	// abort cascade and a coordinated undo (µ).
	KindAbort = "abort"
	// KindStorm: every role raises its own exception concurrently — a
	// resolution storm — and handles the resolved cover, committing.
	KindStorm = "storm"
	// KindChatter: every role streams a burst of application payloads to
	// every other role and drains the bursts addressed to it, then commits.
	// Where the other kinds are control-plane heavy (barriers, votes,
	// resolution), chatter rounds are dominated by App frames — the
	// cluster benchmark's probe of the cross-node wire path.
	KindChatter = "chatter"
)

// ChatterBurst is how many payloads each chatter role sends to each of
// its peers per round. With r roles a round moves r·(r−1)·ChatterBurst
// cross-node messages, enough for per-message wire cost to dominate the
// round's protocol overhead. A cluster driver keeping C chatter rounds in
// flight puts up to C·ChatterBurst messages in flight per node pair, so
// it must size the transport's per-peer credit window accordingly
// (testnet's bench does) or the window's bounded backpressure throttles
// the measurement.
const ChatterBurst = 512

// Mix weights the action kinds in the generated workload. The zero value
// (all weights zero) means DefaultMix.
type Mix struct {
	Commit int `json:"commit"`
	Signal int `json:"signal"`
	Abort  int `json:"abort"`
	Storm  int `json:"storm"`
}

// DefaultMix is commit-heavy with a steady trickle of every failure shape.
var DefaultMix = Mix{Commit: 6, Signal: 2, Abort: 1, Storm: 1}

func (m Mix) total() int { return m.Commit + m.Signal + m.Abort + m.Storm }

// ParseMix parses the command-line mix syntax "commit:6,signal:2,abort:1,
// storm:1". Kinds may appear in any order; omitted kinds weigh zero. An
// empty string parses to the zero Mix (meaning DefaultMix).
func ParseMix(s string) (Mix, error) {
	var m Mix
	if strings.TrimSpace(s) == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		kind, val, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return Mix{}, fmt.Errorf("load: mix entry %q: want kind:weight", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("load: mix entry %q: bad weight", part)
		}
		switch strings.TrimSpace(kind) {
		case KindCommit:
			m.Commit = w
		case KindSignal:
			m.Signal = w
		case KindAbort:
			m.Abort = w
		case KindStorm:
			m.Storm = w
		default:
			return Mix{}, fmt.Errorf("load: mix entry %q: unknown kind (want commit, signal, abort or storm)", part)
		}
	}
	if m.total() <= 0 {
		return Mix{}, fmt.Errorf("load: mix %q has zero total weight", s)
	}
	return m, nil
}

// pick draws a kind from the mix with one rng roll.
func (m Mix) pick(rng *rand.Rand) string {
	n := rng.Intn(m.total())
	switch {
	case n < m.Commit:
		return KindCommit
	case n < m.Commit+m.Signal:
		return KindSignal
	case n < m.Commit+m.Signal+m.Abort:
		return KindAbort
	default:
		return KindStorm
	}
}

// Config parameterises one load run. The zero value is usable: 500 actions,
// 64 in flight, 3 roles, the coordinated resolver over the sim transport.
type Config struct {
	// Actions is the total number of action instances to run.
	Actions int `json:"actions"`
	// Concurrency is the number of driver goroutines, i.e. the maximum
	// number of instances in flight at once.
	Concurrency int `json:"concurrency"`
	// Roles is the number of participating roles (and threads) per action.
	Roles int `json:"roles"`
	// Resolver is the resolution-protocol registry name.
	Resolver string `json:"resolver"`
	// Transport is the transport registry name ("sim" or "tcp").
	Transport string `json:"transport"`
	// Latency is the sim transport's modelled one-way delay.
	Latency time.Duration `json:"latency_ns"`
	// Seed makes the workload composition deterministic.
	Seed int64 `json:"seed"`
	// Mix weights the action kinds; the zero Mix means DefaultMix.
	Mix Mix `json:"mix"`
	// GCPercent pins the garbage collector's pacing (runtime/debug.
	// SetGCPercent) for the duration of the run, restoring the previous
	// value afterwards. Measurement methodology, recorded in the report:
	// at thousands of in-flight actions the default GOGC=100 collects so
	// often that every sync.Pool in the runtime is flushed mid-flight, and
	// the harness measures GC thrash instead of the runtime's capacity —
	// exactly the knob a production deployment of this load would tune.
	// Zero means defaultGCPercent; negative inherits the process setting.
	GCPercent int `json:"gc_percent,omitempty"`
}

// defaultGCPercent is the harness's pinned GC pacing (Config.GCPercent 0).
const defaultGCPercent = 400

func (c Config) withDefaults() Config {
	if c.Actions <= 0 {
		c.Actions = 500
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 64
	}
	if c.Roles < 2 {
		c.Roles = 3
	}
	if c.Resolver == "" {
		c.Resolver = "coordinated"
	}
	if c.Transport == "" {
		c.Transport = "sim"
	}
	if c.Mix.total() <= 0 {
		c.Mix = DefaultMix
	}
	if c.GCPercent == 0 {
		c.GCPercent = defaultGCPercent
	}
	return c
}

// Percentiles summarises a latency distribution in milliseconds.
type Percentiles struct {
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

func percentiles(durations []time.Duration) Percentiles {
	if len(durations) == 0 {
		return Percentiles{}
	}
	sorted := append([]time.Duration(nil), durations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return float64(sorted[i]) / float64(time.Millisecond)
	}
	return Percentiles{
		P50: at(0.50),
		P90: at(0.90),
		P99: at(0.99),
		Max: float64(sorted[len(sorted)-1]) / float64(time.Millisecond),
	}
}

// KindStats aggregates the instances of one action kind.
type KindStats struct {
	Actions int         `json:"actions"`
	Latency Percentiles `json:"latency"`
}

// Report is the outcome of one load run.
type Report struct {
	Config     Config  `json:"config"`
	WallSecs   float64 `json:"wall_seconds"`
	Throughput float64 `json:"actions_per_second"`
	// AllocsPerAction and BytesPerAction are process-wide heap allocation
	// counts divided by the number of actions — the load harness's
	// equivalent of the benchmarks' allocs/op, watched by the perf gate.
	AllocsPerAction float64 `json:"allocs_per_action"`
	BytesPerAction  float64 `json:"bytes_per_action"`
	// GoroutineHighWater and PeakHeapBytes are sampled maxima over the run
	// (process-wide). They make scalability regressions — leaked runners,
	// unbounded pools, runaway buffering — visible in BENCH_load.json even
	// when throughput still looks healthy.
	GoroutineHighWater int         `json:"goroutine_high_water"`
	PeakHeapBytes      uint64      `json:"peak_heap_bytes"`
	Latency            Percentiles `json:"latency"`
	// Outcomes counts per-action classifications: "ok", "undone", "failed",
	// "signalled:<exc>" or "error:<msg>".
	Outcomes map[string]int        `json:"outcomes"`
	Kinds    map[string]*KindStats `json:"kinds"`
	// Messages are the transport's per-kind message counters ("Exception",
	// "Commit", "Enter", ...).
	Messages map[string]int64 `json:"messages"`
	// Unexpected lists actions whose outcome did not match their kind's
	// expectation; a healthy run has none.
	Unexpected []string `json:"unexpected,omitempty"`
}

// peakSampler tracks process-wide goroutine-count and live-heap maxima over
// a run with cheap runtime/metrics reads (no stop-the-world), sampled every
// couple of milliseconds on an untracked goroutine. Goroutine peaks can be
// shorter than that, since role runners are spawned inside StartAction and
// retire once the load drops, so drivers also note the count right after
// each start, where the peak happens.
type peakSampler struct {
	stop, done chan struct{}
	goroutines int
	heap       uint64
	noted      atomic.Int64
}

// noteGoroutines raises the goroutine high-water to the current count.
func (s *peakSampler) noteGoroutines() {
	n := int64(runtime.NumGoroutine())
	for cur := s.noted.Load(); n > cur && !s.noted.CompareAndSwap(cur, n); cur = s.noted.Load() {
	}
}

func startPeakSampler() *peakSampler {
	s := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		samples := []metrics.Sample{
			{Name: "/sched/goroutines:goroutines"},
			{Name: "/memory/classes/heap/objects:bytes"},
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			if n := int(samples[0].Value.Uint64()); n > s.goroutines {
				s.goroutines = n
			}
			if b := samples[1].Value.Uint64(); b > s.heap {
				s.heap = b
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns (goroutine high-water, peak heap
// bytes).
func (s *peakSampler) finish() (int, uint64) {
	close(s.stop)
	<-s.done
	return max(s.goroutines, int(s.noted.Load())), s.heap
}

// Run executes one load run and aggregates its report. It is synchronous:
// when it returns, every instance has completed and the System is closed.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	metrics := &caaction.Metrics{}
	opts := []caaction.Option{
		caaction.WithRealTime(),
		caaction.WithMetrics(metrics),
	}
	switch cfg.Transport {
	case "sim":
		opts = append(opts, caaction.WithSimTransport(cfg.Latency))
	default:
		opts = append(opts, caaction.WithTransport(cfg.Transport))
	}
	if cfg.Resolver != "" {
		opts = append(opts, caaction.WithResolver(cfg.Resolver))
	}
	if cfg.GCPercent > 0 {
		defer debug.SetGCPercent(debug.SetGCPercent(cfg.GCPercent))
	}
	sys, err := caaction.New(opts...)
	if err != nil {
		return nil, err
	}
	defer func() { _ = sys.Close() }()

	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}

	type sample struct {
		kind, outcome string
		latency       time.Duration
		unexpected    string
	}
	samples := make([]sample, cfg.Actions)
	var next atomic.Int64
	var wg sync.WaitGroup
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	peaks := startPeakSampler()
	start := time.Now()
	for i := 0; i < cfg.Concurrency; i++ {
		wg.Add(1)
		sys.Go(func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1) - 1)
				if idx >= cfg.Actions {
					return
				}
				kind := w.kindOf(idx)
				spec, progs := w.action(kind)
				t0 := time.Now()
				h, err := sys.StartAction(context.Background(), spec, progs)
				peaks.noteGoroutines()
				var outcome string
				if err != nil {
					outcome = "error: " + err.Error()
				} else {
					h.WaitDone()
					outcome = classify(h)
				}
				s := sample{kind: kind, outcome: outcome, latency: time.Since(t0)}
				if want := w.expect(kind); outcome != want {
					s.unexpected = fmt.Sprintf("action %d (%s): outcome %q, want %q", idx, kind, outcome, want)
				}
				samples[idx] = s
			}
		})
	}
	wg.Wait()
	wall := time.Since(start)
	ghw, peakHeap := peaks.finish()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	rep := &Report{
		Config:             cfg,
		WallSecs:           wall.Seconds(),
		Throughput:         float64(cfg.Actions) / wall.Seconds(),
		AllocsPerAction:    float64(memAfter.Mallocs-memBefore.Mallocs) / float64(cfg.Actions),
		BytesPerAction:     float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(cfg.Actions),
		GoroutineHighWater: ghw,
		PeakHeapBytes:      peakHeap,
		Outcomes:           make(map[string]int),
		Kinds:              make(map[string]*KindStats),
		Messages:           make(map[string]int64),
	}
	all := make([]time.Duration, 0, len(samples))
	perKind := make(map[string][]time.Duration)
	for _, s := range samples {
		rep.Outcomes[s.outcome]++
		all = append(all, s.latency)
		perKind[s.kind] = append(perKind[s.kind], s.latency)
		if s.unexpected != "" {
			rep.Unexpected = append(rep.Unexpected, s.unexpected)
		}
	}
	rep.Latency = percentiles(all)
	for kind, ds := range perKind {
		rep.Kinds[kind] = &KindStats{Actions: len(ds), Latency: percentiles(ds)}
	}
	for name, v := range metrics.Snapshot() {
		if len(name) > 4 && name[:4] == "msg." {
			rep.Messages[name[4:]] = v
		}
	}
	return rep, nil
}

// SweepPoint condenses one concurrency level of a scaling sweep: the
// metrics the perf gate compares (throughput, tail latency, allocation
// rate) plus the scalability watermarks.
type SweepPoint struct {
	Concurrency        int     `json:"concurrency"`
	Actions            int     `json:"actions"`
	Throughput         float64 `json:"actions_per_second"`
	AllocsPerAction    float64 `json:"allocs_per_action"`
	P99Ms              float64 `json:"p99_ms"`
	GoroutineHighWater int     `json:"goroutine_high_water"`
	PeakHeapBytes      uint64  `json:"peak_heap_bytes"`
}

// RunSweep executes one full Run per concurrency level (each on a fresh
// System) and condenses the results, proving — or disproving — that
// throughput scales with in-flight instances. cfg.Concurrency is overridden
// per point; everything else (actions, mix, seed, resolver) is held fixed
// so the points are comparable.
func RunSweep(cfg Config, concurrencies []int) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(concurrencies))
	for _, c := range concurrencies {
		runCfg := cfg
		runCfg.Concurrency = c
		rep, err := Run(runCfg)
		if err != nil {
			return nil, fmt.Errorf("load: sweep at concurrency %d: %w", c, err)
		}
		if len(rep.Unexpected) > 0 {
			return nil, fmt.Errorf("load: sweep at concurrency %d: %d unexpected outcomes, e.g. %s",
				c, len(rep.Unexpected), rep.Unexpected[0])
		}
		points = append(points, SweepPoint{
			Concurrency:        c,
			Actions:            rep.Config.Actions,
			Throughput:         rep.Throughput,
			AllocsPerAction:    rep.AllocsPerAction,
			P99Ms:              rep.Latency.P99,
			GoroutineHighWater: rep.GoroutineHighWater,
			PeakHeapBytes:      rep.PeakHeapBytes,
		})
	}
	return points, nil
}

// ClassifyRole names one role's outcome: "ok", "failed" (ƒ), "undone" (µ),
// "signalled:<ε>" for an exceptional exit, or "error: <msg>" for anything
// else. It is the per-role half of the harness's classification, exported
// so multi-process drivers (the cluster testnet) can classify each node's
// roles locally and merge with MergeOutcomes.
func ClassifyRole(err error) string {
	switch {
	case err == nil:
		return "ok"
	case caaction.IsFailed(err):
		return "failed"
	case caaction.IsUndone(err):
		return "undone"
	default:
		if se, ok := caaction.AsSignalled(err); ok {
			return signalledOutcome(se.Exc)
		}
		return "error: " + err.Error()
	}
}

// signalledOutcomes interns ClassifyRole's "signalled:<ε>" per exception,
// so classifying a repeated exceptional exit allocates nothing. It stops
// growing at maxSignalledOutcomes exceptions; later ones are built per call.
var (
	signalledOutcomes sync.Map // caaction.Exception -> string
	signalledInterned atomic.Int32
)

const maxSignalledOutcomes = 256

func signalledOutcome(exc caaction.Exception) string {
	if v, ok := signalledOutcomes.Load(exc); ok {
		return v.(string)
	}
	outcome := "signalled:" + string(exc)
	if signalledInterned.Load() < maxSignalledOutcomes {
		if v, loaded := signalledOutcomes.LoadOrStore(exc, outcome); loaded {
			return v.(string)
		}
		signalledInterned.Add(1)
	}
	return outcome
}

// severity orders classified outcomes: failed > undone > error > signalled
// > ok. MergeOutcomes keeps the most severe (first wins among equals).
func severity(outcome string) int {
	switch {
	case outcome == "failed":
		return 4
	case outcome == "undone":
		return 3
	case strings.HasPrefix(outcome, "error"):
		return 2
	case strings.HasPrefix(outcome, "signalled:"):
		return 1
	default:
		return 0
	}
}

// MergeOutcomes reduces per-role classifications (ClassifyRole) to one
// action outcome under the harness's fixed severity order — failed >
// undone > error > signalled > ok — keeping the first seen among equals,
// so a deterministic role order yields a deterministic action outcome.
// With no arguments it returns "ok".
func MergeOutcomes(outcomes ...string) string {
	merged := "ok"
	for _, o := range outcomes {
		if severity(o) > severity(merged) {
			merged = o
		}
	}
	return merged
}

// classify reduces an instance's per-role outcomes to one action outcome,
// roles visited in spec order (ActionHandle.Each), so identical runs always
// classify identically, without the per-action map snapshot and sort the
// old map-based classification paid.
func classify(h *caaction.ActionHandle) string {
	merged := "ok"
	h.Each(func(role string, err error) {
		if o := ClassifyRole(err); severity(o) > severity(merged) {
			merged = o
		}
	})
	return merged
}

// workload owns the per-kind specs and programs, all safe for concurrent
// reuse across instances (specs are immutable and programs only touch their
// per-instance Context), plus the precomputed per-action kind sequence.
type workload struct {
	cfg   Config
	kinds []string
	specs map[string]*caaction.Spec
	progs map[string]map[string]caaction.RoleProgram
}

func roleName(i int) string { return indexedName(&roleNames, "r", i) }

// threadName returns the shared thread addresses every instance muxes over.
func threadName(i int) string { return indexedName(&threadNames, "L", i) }

// roleNames and threadNames hold the first names formatted once, so bodies
// that name a peer per call (abort's raiser, chatter) allocate nothing.
var roleNames, threadNames = formatNames("r"), formatNames("L")

func formatNames(prefix string) (names [16]string) {
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i+1)
	}
	return names
}

func indexedName(names *[16]string, prefix string, i int) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s%d", prefix, i+1)
}

// RoleName returns the harness's i-th role name ("r1", "r2", ...), and
// ThreadName the logical thread address that role is bound to ("L1", "L2",
// ...). Exported so external drivers — the cluster testnet partitioning
// threads across nodes — agree with the Workload specs on naming.
func RoleName(i int) string { return roleName(i) }

// ThreadName returns the harness's i-th logical thread address; see
// RoleName.
func ThreadName(i int) string { return threadName(i) }

// Decision records one role's view of a storm resolution: the exception
// the resolver settled on and the concurrently raised set (sorted ids) it
// covered. The chaos invariants a cluster testnet asserts — per-round
// agreement and cover-set resolution — are statements over these.
type Decision struct {
	Role     string   `json:"role"`
	Resolved string   `json:"resolved"`
	Raised   []string `json:"raised"`
}

// Observer receives one Decision per storm role as its handler runs; it
// must be safe for concurrent use (roles decide in parallel).
type Observer func(Decision)

// Workload returns one load-action kind — the same specs and programs Run
// drives — for external drivers that start the actions through their own
// Systems (the cluster testnet starting locally-placed roles on each
// node). roles must be at least 2. For KindStorm a non-nil obs receives
// every role's resolution Decision; other kinds ignore obs.
func Workload(kind string, roles int, obs Observer) (*caaction.Spec, map[string]caaction.RoleProgram, error) {
	if roles < 2 {
		return nil, nil, fmt.Errorf("load: Workload needs at least 2 roles, got %d", roles)
	}
	var (
		spec  *caaction.Spec
		progs map[string]caaction.RoleProgram
		err   error
	)
	switch kind {
	case KindCommit:
		_, spec, progs, err = buildCommit(roles)
	case KindSignal:
		_, spec, progs, err = buildSignal(roles)
	case KindAbort:
		_, spec, progs, err = buildAbort(roles)
	case KindStorm:
		_, spec, progs, err = buildStorm(roles, obs)
	case KindChatter:
		_, spec, progs, err = buildChatter(roles)
	default:
		return nil, nil, fmt.Errorf("load: unknown workload kind %q", kind)
	}
	return spec, progs, err
}

// Expect is each kind's deterministic merged outcome: what classify
// reports for a fault-free run of the kind's action.
func Expect(kind string) string {
	switch kind {
	case KindSignal:
		return "signalled:overload"
	case KindAbort:
		return "undone"
	default:
		return "ok"
	}
}

func newWorkload(cfg Config) (*workload, error) {
	w := &workload{
		cfg:   cfg,
		specs: make(map[string]*caaction.Spec),
		progs: make(map[string]map[string]caaction.RoleProgram),
	}
	for _, build := range []func(int) (string, *caaction.Spec, map[string]caaction.RoleProgram, error){
		buildCommit, buildSignal, buildAbort,
		func(roles int) (string, *caaction.Spec, map[string]caaction.RoleProgram, error) {
			return buildStorm(roles, nil)
		},
	} {
		kind, spec, progs, err := build(cfg.Roles)
		if err != nil {
			return nil, fmt.Errorf("load: building %s workload: %w", kind, err)
		}
		w.specs[kind] = spec
		w.progs[kind] = progs
	}
	// Draw the whole kind sequence up front from one seeded stream. Still
	// fully deterministic in (Seed, Mix, Actions), but the drivers' hot
	// loop no longer pays an rng construction per action — seeding a
	// math/rand source initialises a 607-word feedback register, which
	// profiled at ~20% of a sim-transport run's CPU.
	w.kinds = make([]string, cfg.Actions)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range w.kinds {
		w.kinds[i] = cfg.Mix.pick(rng)
	}
	return w, nil
}

// kindOf is action idx's precomputed kind.
func (w *workload) kindOf(idx int) string { return w.kinds[idx] }

func (w *workload) action(kind string) (*caaction.Spec, map[string]caaction.RoleProgram) {
	return w.specs[kind], w.progs[kind]
}

// expect is each kind's deterministic outcome.
func (w *workload) expect(kind string) string { return Expect(kind) }

func rolesOn(b *caaction.SpecBuilder, n int) *caaction.SpecBuilder {
	for i := 0; i < n; i++ {
		b = b.Role(roleName(i), threadName(i))
	}
	return b
}

func buildCommit(roles int) (string, *caaction.Spec, map[string]caaction.RoleProgram, error) {
	spec, err := rolesOn(caaction.NewSpec("load-commit"), roles).Build()
	if err != nil {
		return KindCommit, nil, nil, err
	}
	progs := make(map[string]caaction.RoleProgram, roles)
	for i := 0; i < roles; i++ {
		progs[roleName(i)] = caaction.RoleProgram{
			Body: func(ctx *caaction.Context) error { return ctx.Checkpoint() },
		}
	}
	return KindCommit, spec, progs, nil
}

// buildChatter builds the data-plane-heavy kind: each role sends
// ChatterBurst payloads to every other role, then drains the bursts
// addressed to it and commits. Sends are asynchronous, so every role
// finishes its send loop before blocking in Recv — no ordering deadlock.
func buildChatter(roles int) (string, *caaction.Spec, map[string]caaction.RoleProgram, error) {
	spec, err := rolesOn(caaction.NewSpec("load-chatter"), roles).Build()
	if err != nil {
		return KindChatter, nil, nil, err
	}
	progs := make(map[string]caaction.RoleProgram, roles)
	for i := 0; i < roles; i++ {
		self := i
		progs[roleName(i)] = caaction.RoleProgram{
			Body: func(ctx *caaction.Context) error {
				for j := 0; j < roles; j++ {
					if j == self {
						continue
					}
					for k := 0; k < ChatterBurst; k++ {
						if err := ctx.Send(roleName(j), "chatter"); err != nil {
							return err
						}
					}
				}
				for j := 0; j < roles; j++ {
					if j == self {
						continue
					}
					for k := 0; k < ChatterBurst; k++ {
						if _, err := ctx.Recv(roleName(j)); err != nil {
							return err
						}
					}
				}
				return ctx.Checkpoint()
			},
		}
	}
	return KindChatter, spec, progs, nil
}

func buildSignal(roles int) (string, *caaction.Spec, map[string]caaction.RoleProgram, error) {
	spec, err := rolesOn(caaction.NewSpec("load-signal"), roles).
		Exception("overload").
		Signals("overload").
		Build()
	if err != nil {
		return KindSignal, nil, nil, err
	}
	progs := make(map[string]caaction.RoleProgram, roles)
	progs[roleName(0)] = caaction.RoleProgram{
		Body: func(ctx *caaction.Context) error { return ctx.Raise("overload", "load raiser") },
	}
	for i := 1; i < roles; i++ {
		progs[roleName(i)] = caaction.RoleProgram{
			// Wait for the raiser's Exception; the control error unwinds the
			// body and — with no handler but "overload" declared in Signals —
			// every role signals ε = overload.
			Body: func(ctx *caaction.Context) error { return ctx.Compute(time.Hour) },
		}
	}
	return KindSignal, spec, progs, nil
}

func buildAbort(roles int) (string, *caaction.Spec, map[string]caaction.RoleProgram, error) {
	raiser := roleName(roles - 1)
	outer, err := rolesOn(caaction.NewSpec("load-abort"), roles).
		Exception("halt").
		Build()
	if err != nil {
		return KindAbort, nil, nil, err
	}
	nestedB := caaction.NewSpec("load-abort-nest")
	for i := 0; i < roles-1; i++ {
		nestedB = nestedB.Role(roleName(i), threadName(i))
	}
	nested, err := nestedB.Build()
	if err != nil {
		return KindAbort, nil, nil, err
	}

	progs := make(map[string]caaction.RoleProgram, roles)
	for i := 0; i < roles-1; i++ {
		role := roleName(i)
		progs[role] = caaction.RoleProgram{
			Body: func(ctx *caaction.Context) error {
				// Tell the raiser we are about to descend, then sit in the
				// nested action until its abort cascade throws us out.
				if err := ctx.Send(raiser, "descending"); err != nil {
					return err
				}
				return ctx.Enter(nested, role, caaction.RoleProgram{
					Body: func(c *caaction.Context) error { return c.Compute(time.Hour) },
				})
			},
		}
	}
	progs[raiser] = caaction.RoleProgram{
		Body: func(ctx *caaction.Context) error {
			for i := 0; i < roles-1; i++ {
				if _, err := ctx.Recv(roleName(i)); err != nil {
					return err
				}
			}
			return ctx.Raise("halt", "load abort")
		},
	}
	return KindAbort, outer, progs, nil
}

func buildStorm(roles int, obs Observer) (string, *caaction.Spec, map[string]caaction.RoleProgram, error) {
	b := rolesOn(caaction.NewSpec("load-storm"), roles)
	excs := make([]caaction.Exception, roles)
	for i := range excs {
		excs[i] = caaction.Exception(fmt.Sprintf("e%d", i+1))
	}
	spec, err := b.Exception(excs...).Build()
	if err != nil {
		return KindStorm, nil, nil, err
	}
	// Whatever subset of the storm lands in round 0 — one raise or all of
	// them — some cover resolves it; handling every node keeps the outcome
	// a clean commit. A non-nil observer sees each role's decision — the
	// raw material for the agreement and cover-set invariants.
	handled := func(ctx *caaction.Context, resolved caaction.Exception, raised []caaction.Raised) error {
		if obs != nil {
			ids := make([]string, 0, len(raised))
			for _, r := range raised {
				ids = append(ids, string(r.ID))
			}
			sort.Strings(ids)
			obs(Decision{Role: ctx.Role(), Resolved: string(resolved), Raised: ids})
		}
		return nil
	}
	handlers := make(map[caaction.Exception]caaction.Handler)
	for _, node := range spec.Graph.Nodes() {
		handlers[node] = handled
	}
	progs := make(map[string]caaction.RoleProgram, roles)
	for i := 0; i < roles; i++ {
		exc := excs[i]
		progs[roleName(i)] = caaction.RoleProgram{
			Body: func(ctx *caaction.Context) error {
				return ctx.Raise(exc, "storm")
			},
			Handlers: handlers,
		}
	}
	return KindStorm, spec, progs, nil
}
