package testnet

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"caaction/load"
)

// BenchConfig parameterises one cluster benchmark: cross-node round
// throughput over a freshly booted local cluster, whose traffic rides the
// batched node wire under credit flow control.
type BenchConfig struct {
	// Binary is the canode executable to spawn; required.
	Binary string
	// Nodes is the cluster size; default 3, minimum 2.
	Nodes int
	// Roles is the role count per round (one per node); default Nodes.
	Roles int
	// Rounds is the number of shared action rounds per measurement;
	// default 48.
	Rounds int
	// Concurrency is how many rounds stay in flight; default 24. Round
	// throughput is pipelining-bound, so the wire's cost only shows once
	// enough rounds overlap to saturate the nodes.
	Concurrency int
	// Runs repeats the measurement and records the run with the median
	// throughput; default 1.
	Runs int
	// Resolver is the resolution protocol; default "coordinated".
	Resolver string
	// LogDir receives per-node logs; default a fresh temp dir.
	LogDir string
	// Logf receives progress lines; default os.Stderr.
	Logf func(format string, args ...any)
}

// BenchReport is the recorded cluster benchmark. This is what caload
// embeds as the "cluster" section of BENCH_load.json and what perfgate
// gates.
type BenchReport struct {
	Nodes  int    `json:"nodes"`
	Runs   int    `json:"runs"`
	LogDir string `json:"log_dir"`
	// Batched is the median-of-Runs measurement over the batched node
	// wire (the only one).
	Batched *load.ClusterReport `json:"batched"`
}

func (c BenchConfig) withDefaults() (BenchConfig, error) {
	if c.Binary == "" {
		return c, fmt.Errorf("testnet: BenchConfig.Binary is required")
	}
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Nodes < 2 {
		return c, fmt.Errorf("testnet: bench needs at least 2 nodes, got %d", c.Nodes)
	}
	if c.Roles == 0 {
		c.Roles = c.Nodes
	}
	if c.Roles < 2 || c.Roles > c.Nodes {
		return c, fmt.Errorf("testnet: bench roles must be in [2, nodes]; got %d of %d", c.Roles, c.Nodes)
	}
	if c.Rounds <= 0 {
		c.Rounds = 48
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 24
	}
	if c.Runs <= 0 {
		c.Runs = 1
	}
	if c.Resolver == "" {
		c.Resolver = "coordinated"
	}
	if c.LogDir == "" {
		dir, err := os.MkdirTemp("", "canode-bench-")
		if err != nil {
			return c, fmt.Errorf("testnet: bench log dir: %w", err)
		}
		c.LogDir = dir
	} else if err := os.MkdirAll(c.LogDir, 0o755); err != nil {
		return c, fmt.Errorf("testnet: bench log dir: %w", err)
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	return c, nil
}

// Bench measures cross-node round throughput: it boots one cluster, runs
// cfg.Runs measurements, and records the median-of-N by throughput.
func Bench(cfg BenchConfig) (*BenchReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t, err := bootBenchCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer t.teardown()
	ops := t.clusterOps()
	reps := make([]*load.ClusterReport, 0, cfg.Runs)
	for i := 0; i < cfg.Runs; i++ {
		r, err := load.RunCluster(load.ClusterConfig{
			Label:       "batched",
			Rounds:      cfg.Rounds,
			Roles:       cfg.Roles,
			Concurrency: cfg.Concurrency,
			TagPrefix:   fmt.Sprintf("bench%d", i),
		}, ops)
		if err != nil {
			return nil, fmt.Errorf("testnet: bench run %d: %w", i, err)
		}
		if len(r.Unexpected) > 0 {
			return nil, fmt.Errorf("testnet: bench run %d: %d unexpected outcomes, e.g. %s",
				i, len(r.Unexpected), r.Unexpected[0])
		}
		cfg.Logf("testnet: bench run %d: %.0f rounds/s  p99 %.2fms  batch_frames %d  stalls %d",
			i, r.Throughput, r.Latency.P99, r.BatchFrames, r.CreditStalls)
		reps = append(reps, r)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Throughput < reps[j].Throughput })
	med := reps[(len(reps)-1)/2]
	// A run that flushed no batched frames sent nothing across the wire.
	if med.BatchFrames == 0 {
		return nil, fmt.Errorf("testnet: bench: no batched frames flushed — the wire was not exercised")
	}
	return &BenchReport{Nodes: cfg.Nodes, Runs: cfg.Runs, LogDir: cfg.LogDir, Batched: med}, nil
}

// bootBenchCluster spawns a fresh bench cluster and waits for full peer
// discovery. Node logs land in cfg.LogDir.
func bootBenchCluster(cfg BenchConfig) (*runner, error) {
	placement := make([]string, 0, cfg.Roles)
	for i := 0; i < cfg.Roles; i++ {
		placement = append(placement, fmt.Sprintf("%s=n%d", load.ThreadName(i), i+1))
	}
	t := &runner{
		cfg: Config{
			Binary:   cfg.Binary,
			Nodes:    cfg.Nodes,
			Roles:    cfg.Roles,
			Resolver: cfg.Resolver,
			LogDir:   cfg.LogDir,
			Logf:     cfg.Logf,
			// Generous protocol timeouts: the bench saturates every core,
			// and on small machines a scheduler stall past the smoke
			// testnet's tight 3s vote timeout would convert into a spurious
			// ƒ outcome and abort the measurement. With the long timeouts a
			// stall shows up where it belongs — in the latency percentiles
			// — while a genuinely lost frame still fails the run loudly at
			// the driver's collect deadline.
			SignalTimeout: 20 * time.Second,
			ActionTimeout: 40 * time.Second,
			// Size the credit window over the bench's in-flight peak: every
			// in-flight round could be a chatter round with a full burst
			// outstanding on one node pair, plus protocol traffic. Without
			// the headroom the window's bounded backpressure throttles the
			// rounds and the bench measures flow control, not the wire.
			PeerWindow: cfg.Concurrency*load.ChatterBurst + 4096,
		},
		placementFlag: strings.Join(placement, ","),
		summary:       &Summary{Outcomes: make(map[string]string)},
	}
	first, err := t.spawn("n1", nil, 0)
	if err != nil {
		return nil, err
	}
	t.procs = append(t.procs, first)
	for i := 2; i <= cfg.Nodes; i++ {
		p, err := t.spawn(fmt.Sprintf("n%d", i), []string{first.control}, 0)
		if err != nil {
			t.teardown()
			return nil, err
		}
		t.procs = append(t.procs, p)
	}
	for _, p := range t.procs {
		if err := t.waitPeers(p, cfg.Nodes, 0); err != nil {
			t.teardown()
			return nil, err
		}
	}
	cfg.Logf("testnet: bench cluster up — %d nodes", cfg.Nodes)
	return t, nil
}

// clusterOps adapts a booted runner to the load.RunCluster control
// surface.
func (t *runner) clusterOps() load.ClusterOps {
	return load.ClusterOps{
		Start: func(tag, kind string, roles int) error {
			return t.startRound(tag, kind)
		},
		Await: func(tag string) (string, error) {
			outcome, _, err := t.collectRound(tag, t.procs)
			return outcome, err
		},
		Counters: t.aggregateMetrics,
	}
}
