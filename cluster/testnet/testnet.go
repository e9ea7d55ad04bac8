// Package testnet scripts a local multi-process cluster: it launches N
// canode daemons as real child processes, partitions the load harness's
// thread addresses across them, drives shared action instances through the
// control protocol, kills and restarts a node mid-round, and asserts the
// chaos invariants the survivors must still satisfy — per-round agreement
// on the resolved exception, cover-set resolution against the action's
// exception graph, and the §3.3.3 message bounds over a quiet storm phase.
//
// The harness is what `canode -testnet` runs, and what CI's testnet-smoke
// job asserts; it is deliberately driver-shaped (spawn, poll, verify)
// rather than test-framework-shaped so it can run anywhere a built canode
// binary exists.
package testnet

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"caaction"
	"caaction/cluster"
	"caaction/load"
)

// Config parameterises one testnet run.
type Config struct {
	// Binary is the canode executable to spawn; required.
	Binary string
	// Nodes is the cluster size; default 3, minimum 2.
	Nodes int
	// Roles is the role count per action (one thread per node hosts one
	// role); default Nodes. Must not exceed Nodes.
	Roles int
	// MixedRounds is the number of mixed-kind rounds (commit, signal,
	// abort, storm cycling); default 4.
	MixedRounds int
	// StormRounds is the number of storm instances in the quiet
	// message-bound phase; default 3.
	StormRounds int
	// Resolver is the resolution protocol every node runs; default
	// "coordinated". The §3.3.3 bound phase only asserts protocol-specific
	// counts for coordinated. All nodes of a shared action must agree on
	// the resolver, so the testnet configures the whole cluster uniformly;
	// mixing resolvers across a cluster is only sound when no action spans
	// differently-configured nodes.
	Resolver string
	// KillRestart, when true (the default via Run), kills the highest
	// node's process mid-round — SIGKILL, no goodbye — and restarts a
	// fresh incarnation on new ports, asserting the cluster heals.
	KillRestart bool
	// LogDir receives one stderr log per node incarnation; default a
	// fresh temp dir (reported in the summary).
	LogDir string
	// PeerWindow, when positive, boots every node with that per-peer
	// credit window in messages (canode -peer-window); zero keeps the
	// transport default. The bench raises it to cover its in-flight
	// message peak so credit backpressure does not throttle the
	// measurement.
	PeerWindow int
	// WALDir, when non-empty, gives every node a durable write-ahead log
	// under <WALDir>/<name>; the restarted incarnation then replays its
	// predecessor's WAL, and the harness asserts it re-joins (or
	// deterministically abandons) the wounded round's instance instead of
	// merely tolerating it. Empty runs the cluster memoryless, the
	// pre-WAL behaviour.
	WALDir string
	// SignalTimeout and ActionTimeout are the per-node protocol timeouts
	// (canode -signal-timeout / -action-timeout); defaults 3s and 10s.
	// The smoke testnet keeps the tight defaults so a stuck protocol
	// fails fast; benchmark clusters raise them so scheduler stalls on a
	// loaded machine surface as latency, not as spurious ƒ outcomes.
	SignalTimeout time.Duration
	ActionTimeout time.Duration
	// Logf receives driver progress lines; default os.Stderr.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	if c.Binary == "" {
		return c, fmt.Errorf("testnet: Config.Binary is required")
	}
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Nodes < 2 {
		return c, fmt.Errorf("testnet: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.Roles == 0 {
		c.Roles = c.Nodes
	}
	if c.Roles < 2 || c.Roles > c.Nodes {
		return c, fmt.Errorf("testnet: roles must be in [2, nodes]; got %d of %d", c.Roles, c.Nodes)
	}
	if c.MixedRounds == 0 {
		c.MixedRounds = 4
	}
	if c.StormRounds == 0 {
		c.StormRounds = 3
	}
	if c.Resolver == "" {
		c.Resolver = "coordinated"
	}
	if c.SignalTimeout <= 0 {
		c.SignalTimeout = 3 * time.Second
	}
	if c.ActionTimeout <= 0 {
		c.ActionTimeout = 10 * time.Second
	}
	if c.LogDir == "" {
		dir, err := os.MkdirTemp("", "canode-testnet-")
		if err != nil {
			return c, fmt.Errorf("testnet: log dir: %w", err)
		}
		c.LogDir = dir
	} else if err := os.MkdirAll(c.LogDir, 0o755); err != nil {
		// An explicit log dir need not pre-exist: `canode -testnet -logdir X`
		// on a fresh checkout must not fail before the first node boots.
		return c, fmt.Errorf("testnet: log dir: %w", err)
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	return c, nil
}

// Summary reports one testnet run.
type Summary struct {
	Nodes       int               `json:"nodes"`
	LogDir      string            `json:"log_dir"`
	Outcomes    map[string]string `json:"outcomes"` // tag → merged outcome
	KilledNode  string            `json:"killed_node,omitempty"`
	Violations  []string          `json:"violations,omitempty"`
	ElapsedSecs float64           `json:"elapsed_seconds"`
}

// proc is one spawned canode incarnation.
type proc struct {
	name    string
	control string
	data    string
	cmd     *exec.Cmd
	log     *os.File
}

// waitReady scans the child's stdout for its READY line.
func waitReady(cmd *exec.Cmd, name string) (control, data string, err error) {
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", "", err
	}
	if err := cmd.Start(); err != nil {
		return "", "", fmt.Errorf("testnet: spawning %s: %w", name, err)
	}
	ready := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "READY ") {
				continue
			}
			fields := map[string]string{}
			for _, kv := range strings.Fields(line)[1:] {
				if k, v, ok := strings.Cut(kv, "="); ok {
					fields[k] = v
				}
			}
			ready <- [2]string{fields["control"], fields["data"]}
			// Keep draining so the child never blocks on stdout.
			for sc.Scan() {
			}
			return
		}
	}()
	select {
	case addrs := <-ready:
		if addrs[0] == "" || addrs[1] == "" {
			return "", "", fmt.Errorf("testnet: %s READY line missing addresses", name)
		}
		return addrs[0], addrs[1], nil
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		return "", "", fmt.Errorf("testnet: %s never reported READY", name)
	}
}

// run spawns one node process. incarnation distinguishes restart log files.
func (t *runner) spawn(name string, seeds []string, incarnation int) (*proc, error) {
	logPath := filepath.Join(t.cfg.LogDir, fmt.Sprintf("%s.%d.log", name, incarnation))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("testnet: node log: %w", err)
	}
	args := []string{
		"-node",
		"-name", name,
		"-placement", t.placementFlag,
		"-resolver", t.cfg.Resolver,
		"-exchange-every", "100ms",
		"-signal-timeout", t.cfg.SignalTimeout.String(),
		"-action-timeout", t.cfg.ActionTimeout.String(),
	}
	if t.cfg.WALDir != "" {
		// Per-node WAL directory, shared across incarnations: the fresh
		// incarnation must find its predecessor's log.
		args = append(args, "-wal-dir", filepath.Join(t.cfg.WALDir, name))
	}
	if t.cfg.PeerWindow > 0 {
		args = append(args, "-peer-window", strconv.Itoa(t.cfg.PeerWindow))
	}
	if len(seeds) > 0 {
		args = append(args, "-seeds", strings.Join(seeds, ","))
	}
	cmd := exec.Command(t.cfg.Binary, args...)
	cmd.Stderr = logFile
	control, data, err := waitReady(cmd, name)
	if err != nil {
		logFile.Close()
		return nil, err
	}
	t.cfg.Logf("testnet: %s up (pid %d, control %s, data %s, log %s)",
		name, cmd.Process.Pid, control, data, logPath)
	return &proc{name: name, control: control, data: data, cmd: cmd, log: logFile}, nil
}

type runner struct {
	cfg           Config
	placementFlag string
	procs         []*proc
	summary       *Summary
}

func (t *runner) violate(format string, args ...any) {
	v := fmt.Sprintf(format, args...)
	t.cfg.Logf("testnet: VIOLATION: %s", v)
	t.summary.Violations = append(t.summary.Violations, v)
}

// Run executes the scripted scenario end to end and reports the summary;
// err is non-nil only for harness failures (spawn, protocol, timeouts) —
// invariant violations land in Summary.Violations.
func Run(cfg Config) (*Summary, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	t := &runner{cfg: cfg, summary: &Summary{
		Nodes:    cfg.Nodes,
		LogDir:   cfg.LogDir,
		Outcomes: make(map[string]string),
	}}
	placement := make([]string, 0, cfg.Roles)
	for i := 0; i < cfg.Roles; i++ {
		placement = append(placement, fmt.Sprintf("%s=n%d", load.ThreadName(i), i+1))
	}
	t.placementFlag = strings.Join(placement, ",")
	defer t.teardown()

	// Phase A — boot: n1 seedless, the rest seeded with n1's control
	// address; everyone must discover everyone transitively.
	first, err := t.spawn("n1", nil, 0)
	if err != nil {
		return t.summary, err
	}
	t.procs = append(t.procs, first)
	for i := 2; i <= cfg.Nodes; i++ {
		p, err := t.spawn(fmt.Sprintf("n%d", i), []string{first.control}, 0)
		if err != nil {
			return t.summary, err
		}
		t.procs = append(t.procs, p)
	}
	for _, p := range t.procs {
		if err := t.waitPeers(p, cfg.Nodes, 0); err != nil {
			return t.summary, err
		}
	}
	t.cfg.Logf("testnet: phase A complete — %d nodes, full peer tables", cfg.Nodes)

	// Phase B — mixed rounds with one kill+restart mid-round.
	kinds := []string{load.KindCommit, load.KindSignal, load.KindAbort, load.KindStorm}
	killAt := cfg.MixedRounds / 2
	for r := 0; r < cfg.MixedRounds; r++ {
		kind := kinds[r%len(kinds)]
		tag := fmt.Sprintf("mix-%d", r)
		wounded := cfg.KillRestart && r == killAt
		if err := t.startRound(tag, kind); err != nil {
			return t.summary, err
		}
		if wounded {
			survivors, err := t.killAndRestart(tag)
			if err != nil {
				return t.summary, err
			}
			// The wounded round ran with a role's host SIGKILLed mid-
			// flight: survivors must still terminate (timeouts unwind
			// them), but no particular outcome is owed. Collect only from
			// the round's survivors — the fresh incarnation never saw it.
			outcome, _, err := t.collectRound(tag, survivors)
			if err != nil {
				return t.summary, err
			}
			t.summary.Outcomes[tag] = outcome + " (wounded)"
			continue
		}
		outcome, decisions, err := t.collectRound(tag, t.procs)
		if err != nil {
			return t.summary, err
		}
		t.summary.Outcomes[tag] = outcome
		if outcome != load.Expect(kind) {
			t.violate("round %s (%s) outcome %q, want %q", tag, kind, outcome, load.Expect(kind))
		}
		t.checkDecisions(tag, kind, decisions)
	}
	t.cfg.Logf("testnet: phase B complete — %d mixed rounds", cfg.MixedRounds)

	// Phase C — quiet storm phase for the §3.3.3 message bounds: nothing
	// else runs, so the counter deltas across all nodes are exactly the
	// storms' protocol traffic.
	before, err := t.aggregateMetrics()
	if err != nil {
		return t.summary, err
	}
	for r := 0; r < cfg.StormRounds; r++ {
		tag := fmt.Sprintf("storm-%d", r)
		if err := t.startRound(tag, load.KindStorm); err != nil {
			return t.summary, err
		}
		outcome, decisions, err := t.collectRound(tag, t.procs)
		if err != nil {
			return t.summary, err
		}
		t.summary.Outcomes[tag] = outcome
		if outcome != "ok" {
			t.violate("storm round %s outcome %q, want ok", tag, outcome)
		}
		t.checkDecisions(tag, load.KindStorm, decisions)
	}
	after, err := t.aggregateMetrics()
	if err != nil {
		return t.summary, err
	}
	t.checkMessageBounds(before, after)
	t.cfg.Logf("testnet: phase C complete — %d storm rounds, message bounds checked", cfg.StormRounds)

	// The cross-node traffic of phases B and C — including the rounds
	// spanning the kill/restart — must have flowed as batched frames.
	// Paired with the exact phase-C message bounds (which a lost or
	// duplicated frame would break), this asserts the batched wire survives
	// a SIGKILL mid-batch without frame loss or duplication.
	if after["tcp.batch_frames"] == 0 {
		t.violate("no batched node frames were flushed (tcp.batch_frames = 0)")
	}
	t.cfg.Logf("testnet: %d batched node frames flushed cluster-wide", after["tcp.batch_frames"])

	// Phase D — graceful shutdown: drain every node, then stop.
	for _, p := range t.procs {
		if err := cluster.DrainNode(p.control, 10*time.Second); err != nil {
			t.violate("drain %s: %v", p.name, err)
		}
	}
	t.summary.ElapsedSecs = time.Since(start).Seconds()
	return t.summary, nil
}

func (t *runner) survivors() []*proc {
	out := make([]*proc, 0, len(t.procs))
	for _, p := range t.procs {
		if p.cmd.ProcessState == nil { // still running (not reaped)
			out = append(out, p)
		}
	}
	return out
}

// waitPeers polls a node until its peer table holds want records with
// downWant of them down.
func (t *runner) waitPeers(p *proc, want, downWant int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := cluster.Status(p.control)
		if err == nil && len(st.Peers) == want && len(st.PeersDown) == downWant {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("testnet: %s never converged to %d peers (%d down); last: %+v, %v",
				p.name, want, downWant, st, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// startRound starts one tagged instance on every live node and checks the
// cluster-wide role cover is exact.
func (t *runner) startRound(tag, kind string) error {
	started := make(map[string]bool)
	for _, p := range t.procs {
		rep, err := cluster.Start(p.control, cluster.StartRequest{Tag: tag, Kind: kind, Roles: t.cfg.Roles})
		if err != nil {
			return fmt.Errorf("testnet: start %s (%s) on %s: %w", tag, kind, p.name, err)
		}
		for _, role := range rep.Roles {
			if started[role] {
				return fmt.Errorf("testnet: role %s of %s started on two nodes", role, tag)
			}
			started[role] = true
		}
	}
	if len(started) != t.cfg.Roles {
		return fmt.Errorf("testnet: %s covered %d roles, want %d", tag, len(started), t.cfg.Roles)
	}
	return nil
}

// collectRound polls the given nodes until each reports the tag done and
// merges outcomes and decisions.
func (t *runner) collectRound(tag string, from []*proc) (string, []load.Decision, error) {
	var outcomes []string
	var decisions []load.Decision
	deadline := time.Now().Add(45 * time.Second)
	for _, p := range from {
		for {
			res, err := cluster.Result(p.control, tag)
			if err == nil && res.Done {
				keys := make([]string, 0, len(res.Outcomes))
				for role := range res.Outcomes {
					keys = append(keys, role)
				}
				sort.Strings(keys)
				for _, role := range keys {
					outcomes = append(outcomes, res.Outcomes[role])
				}
				decisions = append(decisions, res.Decisions...)
				break
			}
			if time.Now().After(deadline) {
				return "", nil, fmt.Errorf("testnet: %s never finished on %s (last err %v)", tag, p.name, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return load.MergeOutcomes(outcomes...), decisions, nil
}

// checkDecisions asserts the per-round agreement and cover-set invariants
// over a storm round's decisions.
func (t *runner) checkDecisions(tag, kind string, decisions []load.Decision) {
	if kind != load.KindStorm {
		return
	}
	if len(decisions) != t.cfg.Roles {
		t.violate("%s: %d storm decisions across nodes, want one per role (%d)", tag, len(decisions), t.cfg.Roles)
		return
	}
	for _, d := range decisions[1:] {
		if d.Resolved != decisions[0].Resolved {
			t.violate("%s: resolution disagreement: %s resolved %q, %s resolved %q",
				tag, decisions[0].Role, decisions[0].Resolved, d.Role, d.Resolved)
		}
	}
	// Cover-set resolution: each role's resolved exception must be what
	// the action's exception graph resolves its observed raised set to.
	spec, _, err := load.Workload(load.KindStorm, t.cfg.Roles, nil)
	if err != nil {
		t.violate("%s: rebuilding storm spec: %v", tag, err)
		return
	}
	for _, d := range decisions {
		raised := make([]caaction.Exception, 0, len(d.Raised))
		for _, id := range d.Raised {
			raised = append(raised, caaction.Exception(id))
		}
		want, err := spec.Graph.Resolve(raised...)
		if err != nil {
			t.violate("%s: %s raised %v: graph refuses to resolve: %v", tag, d.Role, d.Raised, err)
			continue
		}
		if string(want) != d.Resolved {
			t.violate("%s: %s resolved %q for raised %v; graph cover is %q",
				tag, d.Role, d.Resolved, d.Raised, want)
		}
	}
}

// aggregateMetrics sums every node's counters.
func (t *runner) aggregateMetrics() (map[string]int64, error) {
	total := make(map[string]int64)
	for _, p := range t.procs {
		mi, err := cluster.MetricsOf(p.control)
		if err != nil {
			return nil, fmt.Errorf("testnet: metrics from %s: %w", p.name, err)
		}
		for k, v := range mi.Counters {
			total[k] += v
		}
	}
	return total, nil
}

// checkMessageBounds asserts the §3.3.3 complexities over the quiet storm
// phase's counter deltas. With P storm instances of N roles each and all
// N roles raising, a resolution may take between 1 and N rounds in real
// time (late raises trigger re-resolution), so the per-kind counts are
// bracketed rather than pinned:
//
//	Enter               = P·N(N−1)                (exact: one broadcast each)
//	Exception+Suspended ∈ [P·N(N−1), P·N·N(N−1)]  (R ∈ [P, P·N] rounds)
//	Commit              ∈ [P·(N−1), P·N·(N−1)]    (coordinated only)
//	ToBeSignalled       ≤ (P·N+P)·N(N−1)          ((R+P)·N(N−1) at R = P·N)
func (t *runner) checkMessageBounds(before, after map[string]int64) {
	n := int64(t.cfg.Roles)
	p := int64(t.cfg.StormRounds)
	nn := n * (n - 1)
	delta := func(key string) int64 { return after[key] - before[key] }

	if got, want := delta("msg.Enter"), p*nn; got != want {
		t.violate("Enter messages %d, want P·N(N−1) = %d", got, want)
	}
	status := delta("msg.Exception") + delta("msg.Suspended")
	if status < p*nn || status > p*n*nn {
		t.violate("Exception+Suspended %d outside [P·N(N−1), P·N·N(N−1)] = [%d, %d]", status, p*nn, p*n*nn)
	}
	if t.cfg.Resolver == "coordinated" {
		commit := delta("msg.Commit")
		if commit < p*(n-1) || commit > p*n*(n-1) {
			t.violate("Commit %d outside [P·(N−1), P·N·(N−1)] = [%d, %d]", commit, p*(n-1), p*n*(n-1))
		}
		if extra := delta("msg.Relay") + delta("msg.Propose") + delta("msg.Ack"); extra != 0 {
			t.violate("coordinated run used %d baseline-protocol messages", extra)
		}
	}
	if votes, max := delta("msg.ToBeSignalled"), (p*n+p)*nn; votes > max {
		t.violate("ToBeSignalled %d exceeds (R+P)·N(N−1) = %d", votes, max)
	}
}

// killAndRestart SIGKILLs the highest node right after a round started on
// it, waits for the survivors to mark it down, then boots a fresh
// incarnation and waits for the cluster to heal. It returns the survivor
// snapshot from between kill and restart — the processes that actually
// hosted the wounded round's remaining roles.
func (t *runner) killAndRestart(tag string) ([]*proc, error) {
	victim := t.procs[len(t.procs)-1]
	t.cfg.Logf("testnet: killing %s (pid %d) mid-round %s", victim.name, victim.cmd.Process.Pid, tag)
	if err := victim.cmd.Process.Kill(); err != nil {
		return nil, fmt.Errorf("testnet: killing %s: %w", victim.name, err)
	}
	_ = victim.cmd.Wait()
	victim.log.Close()
	t.summary.KilledNode = victim.name
	survivors := t.survivors()

	// Liveness: every survivor must mark the victim down on its own.
	for _, p := range survivors {
		if err := t.waitPeers(p, t.cfg.Nodes, 1); err != nil {
			return nil, fmt.Errorf("testnet: %s never marked %s down: %w", p.name, victim.name, err)
		}
	}
	t.cfg.Logf("testnet: survivors marked %s down", victim.name)

	// Restart: same name, new ports, fresh epoch; seed with n1.
	fresh, err := t.spawn(victim.name, []string{t.procs[0].control}, 1)
	if err != nil {
		return nil, fmt.Errorf("testnet: restarting %s: %w", victim.name, err)
	}
	t.procs[len(t.procs)-1] = fresh
	for _, p := range t.procs {
		if err := t.waitPeers(p, t.cfg.Nodes, 0); err != nil {
			return nil, fmt.Errorf("testnet: cluster never healed after %s restart: %w", victim.name, err)
		}
	}
	t.cfg.Logf("testnet: %s restarted and rediscovered", victim.name)

	// With a WAL, recovery owes more than tolerance: the reborn node
	// replayed its predecessor's log, so the wounded tag must either
	// re-join (result eventually Done) or be abandoned deterministically
	// (typed ErrLostToCrash). A reborn node that has simply forgotten the
	// tag lost write-ahead state — that is the regression this guards.
	if t.cfg.WALDir != "" {
		t.assertRejoin(fresh, tag)
	}
	return survivors, nil
}

// assertRejoin polls the reborn incarnation for the wounded round's tag
// until the §3.4 recovery decision lands, violating on a forgotten tag.
func (t *runner) assertRejoin(fresh *proc, tag string) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := cluster.Result(fresh.control, tag)
		switch {
		case err == nil && res.Done:
			t.cfg.Logf("testnet: %s re-joined wounded round %s after replay: outcomes %v",
				fresh.name, tag, res.Outcomes)
			return
		case errors.Is(err, cluster.ErrLostToCrash):
			t.cfg.Logf("testnet: %s abandoned wounded round %s (outside recovery window)", fresh.name, tag)
			return
		case errors.Is(err, cluster.ErrUnknownTag):
			t.violate("reborn %s forgot wounded round %s: WAL replay lost the instance (%v)", fresh.name, tag, err)
			return
		}
		if time.Now().After(deadline) {
			t.violate("reborn %s never resolved wounded round %s (last: %+v, %v)", fresh.name, tag, res, err)
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// teardown stops whatever is still running, hard-killing stragglers.
func (t *runner) teardown() {
	var wg sync.WaitGroup
	for _, p := range t.procs {
		if p.cmd.ProcessState != nil {
			continue
		}
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			_ = cluster.StopNode(p.control)
			done := make(chan struct{})
			go func() { _ = p.cmd.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				_ = p.cmd.Process.Kill()
				<-done
			}
			p.log.Close()
		}(p)
	}
	wg.Wait()
}
