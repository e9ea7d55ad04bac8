// Command canode is the CA-action cluster daemon. In node mode (-node) it
// hosts the locally-placed thread roles of a cluster behind a shared TCP
// data listener and a line-delimited control port, discovering peers from
// a seed list. In testnet mode (-testnet) it scripts a whole local
// cluster: N canode child processes, shared actions across them, one
// kill+restart mid-round, and the chaos invariants asserted over the
// survivors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"caaction/cluster"
	"caaction/cluster/testnet"
)

func main() {
	var (
		nodeMode    = flag.Bool("node", false, "run one cluster node")
		testnetMode = flag.Bool("testnet", false, "run a scripted local testnet")

		// node mode
		name          = flag.String("name", "", "node name (unique in the cluster)")
		controlAddr   = flag.String("control", "127.0.0.1:0", "control listener host:port")
		dataAddr      = flag.String("data", "127.0.0.1:0", "data listener host:port")
		seeds         = flag.String("seeds", "", "comma-separated control addresses of known peers")
		placement     = flag.String("placement", "", "thread placement: L1=n1,L2=n2,...")
		resolver      = flag.String("resolver", "coordinated", "resolution protocol (coordinated, cr86, r96)")
		exchangeEvery = flag.Duration("exchange-every", 250*time.Millisecond, "peer hello-exchange period")
		signalTimeout = flag.Duration("signal-timeout", 5*time.Second, "exit-vote timeout (§3.4 lost messages)")
		actionTimeout = flag.Duration("action-timeout", 30*time.Second, "per-instance end-to-end timeout")
		metricsAddr   = flag.String("metrics", "", "HTTP /metrics listener host:port ('' disables; counters stay scrapeable over the control port)")
		maxInFlight   = flag.Int("max-inflight", 0, "admission budget for locally-started actions (0 = unlimited)")
		walDir        = flag.String("wal-dir", "", "directory for the node's protocol write-ahead log ('' runs memoryless; a restart replays <wal-dir>/<name>.wal)")
		peerWindow    = flag.Int("peer-window", 0, "per-peer credit window in messages advertised to dialing peers (0 = transport default)")

		// testnet mode
		nodes       = flag.Int("nodes", 3, "testnet cluster size")
		roles       = flag.Int("roles", 0, "roles per action (default: one per node)")
		rounds      = flag.Int("rounds", 4, "mixed workload rounds")
		stormRounds = flag.Int("storm-rounds", 3, "quiet storm rounds for the §3.3.3 message bounds")
		logDir      = flag.String("logdir", "", "per-node log directory (default: temp dir)")
		walRoot     = flag.String("waldir", "", "testnet: WAL root directory — each node logs under <waldir>/<name> and the restarted node must replay ('' runs memoryless)")
		binary      = flag.String("bin", "", "canode binary to spawn (default: this executable)")
		noKill      = flag.Bool("no-kill", false, "skip the mid-round kill/restart")
	)
	flag.Parse()

	switch {
	case *nodeMode == *testnetMode:
		fmt.Fprintln(os.Stderr, "canode: pass exactly one of -node or -testnet")
		os.Exit(2)
	case *nodeMode:
		os.Exit(runNode(*name, *controlAddr, *dataAddr, *seeds, *placement, *resolver, *metricsAddr, *walDir,
			*exchangeEvery, *signalTimeout, *actionTimeout, *maxInFlight, *peerWindow))
	default:
		os.Exit(runTestnet(*binary, *nodes, *roles, *rounds, *stormRounds, *resolver, *logDir, *walRoot, !*noKill))
	}
}

// parsePlacement reads "L1=n1,L2=n2,..." into a thread→node map.
func parsePlacement(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		thread, node, ok := strings.Cut(part, "=")
		if !ok || thread == "" || node == "" {
			return nil, fmt.Errorf("canode: placement entry %q: want thread=node", part)
		}
		out[thread] = node
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("canode: -placement is required (e.g. L1=n1,L2=n2)")
	}
	return out, nil
}

func runNode(name, controlAddr, dataAddr, seeds, placement, resolver, metricsAddr, walDir string,
	exchangeEvery, signalTimeout, actionTimeout time.Duration, maxInFlight, peerWindow int) int {
	place, err := parsePlacement(placement)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var seedList []string
	for _, s := range strings.Split(seeds, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seedList = append(seedList, s)
		}
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, time.Now().Format("15:04:05.000 ")+format+"\n", args...)
	}

	// Register for shutdown signals before anything binds: a supervisor
	// may SIGTERM a node that is still booting, and losing that signal
	// would leave listeners (and a half-replayed WAL) behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	n, err := cluster.New(cluster.Config{
		Name:          name,
		ControlAddr:   controlAddr,
		DataAddr:      dataAddr,
		Seeds:         seedList,
		Placement:     place,
		Resolver:      resolver,
		ExchangeEvery: exchangeEvery,
		SignalTimeout: signalTimeout,
		ActionTimeout: actionTimeout,
		MetricsAddr:   metricsAddr,
		MaxInFlight:   maxInFlight,
		WALDir:        walDir,
		PeerWindow:    peerWindow,
		Logf:          logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// Test hook: widen the pre-READY window so the early-signal path can
	// be exercised deterministically from the harness test.
	if d := os.Getenv("CANODE_TEST_BOOT_DELAY"); d != "" {
		if dur, perr := time.ParseDuration(d); perr == nil {
			time.Sleep(dur)
		}
	}

	// A signal delivered before READY means the supervisor changed its
	// mind mid-boot: tear down what was built and exit cleanly without
	// ever announcing readiness — the harness must never see a READY line
	// from a node that is already dying.
	select {
	case sig := <-sigc:
		logf("node %s: %v before ready: stopping", name, sig)
		_ = n.Stop()
		return 0
	default:
	}

	// The harness parses this line to learn the bound ephemeral ports.
	// metrics= appears only when -metrics bound an HTTP listener.
	ready := fmt.Sprintf("READY name=%s control=%s data=%s", name, n.ControlAddr(), n.DataAddr())
	if ma := n.MetricsAddr(); ma != "" {
		ready += " metrics=" + ma
	}
	fmt.Println(ready)

	// SIGINT/SIGTERM: graceful exit — stop admitting, finish in-flight
	// resolutions (bounded), then tear down.
	go func() {
		sig := <-sigc
		logf("node %s: %v: draining then stopping", name, sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = n.Drain(ctx)
		_ = n.Stop()
	}()

	if err := n.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func runTestnet(binary string, nodes, roles, rounds, stormRounds int, resolver, logDir, walRoot string, killRestart bool) int {
	if binary == "" {
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "canode: locating own binary: %v\n", err)
			return 1
		}
		binary = self
	}
	sum, err := testnet.Run(testnet.Config{
		Binary:      binary,
		Nodes:       nodes,
		Roles:       roles,
		MixedRounds: rounds,
		StormRounds: stormRounds,
		Resolver:    resolver,
		LogDir:      logDir,
		WALDir:      walRoot,
		KillRestart: killRestart,
	})
	if sum != nil {
		out, _ := json.MarshalIndent(sum, "", "  ")
		fmt.Println(string(out))
	}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "canode: testnet: %v\n", err)
		return 1
	case len(sum.Violations) > 0:
		fmt.Fprintf(os.Stderr, "canode: testnet: %d invariant violation(s)\n", len(sum.Violations))
		return 1
	default:
		fmt.Fprintln(os.Stderr, "canode: testnet passed")
		return 0
	}
}
