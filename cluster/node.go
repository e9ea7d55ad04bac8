// Package cluster is the multi-process deployment runtime for CA-action
// systems: it hosts a System's thread roles across real OS processes
// ("nodes"), discovers peers from a static seed list with gossip-free
// periodic hello exchanges, tracks liveness so sends to dead nodes fail
// with a typed unreachable error instead of hanging, and exposes a
// line-delimited control protocol (status, start, result, metrics,
// scrape, drain, stop) that the cmd/canode daemon and the cluster/testnet
// harness drive.
//
// The address model is two-level. The static placement map pins every
// logical thread address to a node name; the peer directory maps node
// names to the data listener of that node's current incarnation. A send
// to a thread therefore resolves thread → node → host:port per message,
// so a node that restarts on new ports heals cluster-wide as soon as one
// hello exchange reaches each peer — senders never cache a dead route.
// Action instances span nodes by sharing a driver-assigned instance tag
// (System.StartTagged): each node starts only its locally-placed roles,
// and the entry barrier, exception resolution and exit protocol run over
// node-qualified TCP frames exactly as they would in one process.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"caaction"
	"caaction/load"
)

// Config parameterises one cluster node.
type Config struct {
	// Name is the node's cluster-unique logical name.
	Name string
	// DataAddr is the host:port for the shared data listener; empty means
	// loopback with an ephemeral port.
	DataAddr string
	// ControlAddr is the host:port for the control listener; empty means
	// loopback with an ephemeral port.
	ControlAddr string
	// Seeds are control addresses of already-running peers; the node
	// introduces itself to them on its first exchange rounds. Empty for
	// the first node of a cluster.
	Seeds []string
	// Placement pins every logical thread address to a node name. All
	// nodes of a cluster must agree on it.
	Placement map[string]string
	// Resolver names the resolution protocol ("coordinated", "cr86",
	// "r96"); empty means coordinated. Nodes of one cluster may mix
	// resolvers only when no action spans differently-configured nodes;
	// the testnet runs one resolver per instance by partitioning tags.
	Resolver string
	// SignalTimeout bounds each action's wait for peers' exit votes, the
	// §3.4 lost-message extension — essential across processes, where a
	// killed peer otherwise stalls the exit barrier forever. Zero means
	// 5s.
	SignalTimeout time.Duration
	// ActionTimeout bounds one instance end to end; a killed peer then
	// unwinds the survivors' roles through cancellation instead of
	// wedging them. Zero means 30s.
	ActionTimeout time.Duration
	// ExchangeEvery is the hello-exchange period. Zero means 250ms.
	ExchangeEvery time.Duration
	// DrainBudget bounds the control protocol's drain verb. Zero means
	// 10s.
	DrainBudget time.Duration
	// MetricsAddr, when non-empty, additionally serves the node's counters
	// as a Prometheus text scrape over HTTP at GET /metrics (see
	// caaction.WithMetricsAddr). The same text is always available over
	// the control protocol's scrape verb, metrics listener or not.
	MetricsAddr string
	// MaxInFlight, when positive, caps concurrently admitted actions on
	// the node's System; excess starts fail fast with a refusal matching
	// caaction.ErrOverloaded (see caaction.WithMaxInFlight).
	MaxInFlight int
	// WALDir, when non-empty, makes the node durable: protocol state —
	// entry-barrier joins, resolution raises, exit votes, outcomes, and
	// tagged instance starts — is appended to <WALDir>/<Name>.wal before
	// the corresponding message leaves the node. On boot the WAL is
	// replayed: instances still inside their ActionTimeout window are
	// re-started under the same tag (re-joining surviving peers through
	// the entry barrier's re-announce path), the rest are abandoned
	// deterministically and answer result queries with ErrLostToCrash.
	// Empty disables durability: a crashed node forgets everything.
	WALDir string
	// SnapshotEvery is the WAL compaction cadence in records; <= 0 means
	// the default (256).
	SnapshotEvery int
	// PeerWindow, when positive, overrides the per-peer credit window (in
	// messages) this node advertises to dialing peers; see
	// caaction.WithPeerWindow. Zero keeps the transport default.
	PeerWindow int
	// TombstoneAfter is how many exchange rounds a peer marked down stays
	// in the directory before being pruned to a tombstone (which blocks
	// gossip resurrection of the dead incarnation but yields to a fresh
	// epoch). Zero means 10.
	TombstoneAfter int
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.DataAddr == "" {
		c.DataAddr = "127.0.0.1:0"
	}
	if c.ControlAddr == "" {
		c.ControlAddr = "127.0.0.1:0"
	}
	if c.Resolver == "" {
		c.Resolver = "coordinated"
	}
	if c.SignalTimeout <= 0 {
		c.SignalTimeout = 5 * time.Second
	}
	if c.ActionTimeout <= 0 {
		c.ActionTimeout = 30 * time.Second
	}
	if c.ExchangeEvery <= 0 {
		c.ExchangeEvery = 250 * time.Millisecond
	}
	if c.DrainBudget <= 0 {
		c.DrainBudget = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// instance tracks one tagged workload this node participates in.
type instance struct {
	kind   string
	h      *caaction.ActionHandle
	cancel context.CancelFunc

	mu        sync.Mutex
	decisions []load.Decision
}

// Node is one cluster member: a System in cluster mode plus the control
// listener and the peer-exchange loop. Construct with New, run with
// Serve, shut down with Drain then Stop (or Stop alone for a hard exit).
type Node struct {
	cfg   Config
	epoch int64
	dir   *directory
	sys   *caaction.System
	ctl   net.Listener
	wal   *caaction.WAL
	prior caaction.WALState // replayed WAL state at boot

	mu        sync.Mutex
	instances map[string]*instance
	// recovering and lost track tags the boot replay found open: a tag
	// moves recovering → instances (re-started inside its window) or
	// recovering → lost (abandoned, §3.4); result answers ErrLostToCrash
	// for lost tags instead of ErrUnknownTag.
	recovering map[string]bool
	lost       map[string]bool

	done chan struct{}
	stop sync.Once
	wg   sync.WaitGroup
}

// New builds a node: both listeners bind (so ControlAddr/DataAddr are
// final), the System comes up in cluster mode, and the node's own record
// enters its directory. Nothing is served until Serve runs.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: node needs a name")
	}
	if err := validatePlacement(cfg.Name, cfg.Placement); err != nil {
		return nil, err
	}
	dir := newDirectory(cfg.Name, cfg.Placement, cfg.TombstoneAfter)
	var w *caaction.WAL
	var prior caaction.WALState
	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("cluster: node %s: wal dir: %w", cfg.Name, err)
		}
		var err error
		w, err = caaction.OpenWAL(filepath.Join(cfg.WALDir, cfg.Name+".wal"), cfg.SnapshotEvery)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s: wal: %w", cfg.Name, err)
		}
		prior = w.State()
	}
	opts := []caaction.Option{
		caaction.WithCluster(caaction.ClusterConfig{
			ListenAddr: cfg.DataAddr,
			Local:      dir.isLocal,
			Resolve:    dir.resolveThread,
		}),
		caaction.WithResolver(cfg.Resolver),
		caaction.WithSignalTimeout(cfg.SignalTimeout),
	}
	if w != nil {
		opts = append(opts, caaction.WithRecorder(w))
	}
	if cfg.MetricsAddr != "" {
		opts = append(opts, caaction.WithMetricsAddr(cfg.MetricsAddr))
	}
	if cfg.MaxInFlight > 0 {
		opts = append(opts, caaction.WithMaxInFlight(cfg.MaxInFlight))
	}
	if cfg.PeerWindow > 0 {
		opts = append(opts, caaction.WithPeerWindow(cfg.PeerWindow))
	}
	sys, err := caaction.New(opts...)
	if err != nil {
		if w != nil {
			_ = w.Close()
		}
		return nil, fmt.Errorf("cluster: node %s: %w", cfg.Name, err)
	}
	ctl, err := net.Listen("tcp", cfg.ControlAddr)
	if err != nil {
		_ = sys.Close()
		if w != nil {
			_ = w.Close()
		}
		return nil, fmt.Errorf("cluster: node %s: control listener: %w", cfg.Name, err)
	}
	n := &Node{
		cfg:        cfg,
		epoch:      time.Now().UnixNano(),
		dir:        dir,
		sys:        sys,
		ctl:        ctl,
		wal:        w,
		prior:      prior,
		instances:  make(map[string]*instance),
		recovering: make(map[string]bool),
		lost:       make(map[string]bool),
		done:       make(chan struct{}),
	}
	for _, tag := range prior.OpenInstances() {
		n.recovering[tag] = true
	}
	dir.setSelf(n.selfRecord())
	return n, nil
}

func (n *Node) selfRecord() PeerRecord {
	return PeerRecord{
		Name:    n.cfg.Name,
		Control: n.ctl.Addr().String(),
		Data:    n.sys.ClusterAddr(),
		Epoch:   n.epoch,
	}
}

// ControlAddr returns the bound control listener address.
func (n *Node) ControlAddr() string { return n.ctl.Addr().String() }

// DataAddr returns the bound data listener address.
func (n *Node) DataAddr() string { return n.sys.ClusterAddr() }

// MetricsAddr returns the bound HTTP metrics listener address, or "" when
// Config.MetricsAddr was unset.
func (n *Node) MetricsAddr() string { return n.sys.MetricsAddr() }

// System exposes the node's underlying System, for embedders that start
// their own tagged actions instead of the load workloads.
func (n *Node) System() *caaction.System { return n.sys }

// Serve runs the control accept loop and the peer-exchange loop until
// Stop. It returns nil after a clean Stop.
func (n *Node) Serve() error {
	n.cfg.Logf("node %s: serving control=%s data=%s epoch=%d",
		n.cfg.Name, n.ControlAddr(), n.DataAddr(), n.epoch)
	n.wg.Add(1)
	go n.exchangeLoop()
	if len(n.recovering) > 0 {
		n.wg.Add(1)
		go n.recoverInstances()
	}
	for {
		conn, err := n.ctl.Accept()
		if err != nil {
			select {
			case <-n.done:
				n.wg.Wait()
				return nil
			default:
				return fmt.Errorf("cluster: node %s: accept: %w", n.cfg.Name, err)
			}
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveControl(conn)
		}()
	}
}

// exchangeLoop periodically hellos every seed and every known peer,
// merging the records each returns and keeping the liveness tally. A
// peer that misses downAfter consecutive exchanges is marked down; one
// successful hello — including a restarted incarnation announcing a new
// epoch — brings it back.
func (n *Node) exchangeLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.ExchangeEvery)
	defer ticker.Stop()
	for {
		n.exchangeOnce()
		select {
		case <-n.done:
			return
		case <-ticker.C:
		}
	}
}

func (n *Node) exchangeOnce() {
	targets := make(map[string]bool)
	for _, s := range n.cfg.Seeds {
		targets[s] = true
	}
	for _, c := range n.dir.exchangeTargets() {
		targets[c] = true
	}
	self := n.ControlAddr()
	for addr := range targets {
		if addr == self {
			continue
		}
		var rep helloReply
		err := Call(addr, "hello", helloRequest{Records: n.dir.records()}, &rep, n.cfg.ExchangeEvery*2)
		if err != nil {
			n.dir.exchangeFailed(addr)
			continue
		}
		n.dir.exchangeOK(addr)
		n.dir.merge(rep.Records)
	}
	// One prune tick per round: peers down long enough become tombstones,
	// stale tombstones expire.
	n.dir.tick()
}

// handle dispatches one control request.
func (n *Node) handle(verb string, body []byte) (any, error) {
	switch verb {
	case "hello":
		var req helloRequest
		if err := unmarshalBody(body, &req); err != nil {
			return nil, err
		}
		n.dir.merge(req.Records)
		return helloReply{Records: n.dir.records()}, nil
	case "status":
		return n.status(), nil
	case "start":
		var req StartRequest
		if err := unmarshalBody(body, &req); err != nil {
			return nil, err
		}
		return n.startInstance(req)
	case "result":
		var req tagRequest
		if err := unmarshalBody(body, &req); err != nil {
			return nil, err
		}
		return n.result(req.Tag)
	case "metrics":
		return MetricsInfo{Counters: n.sys.Metrics().Snapshot()}, nil
	case "scrape":
		var buf bytes.Buffer
		if err := n.sys.Metrics().WritePrometheus(&buf); err != nil {
			return nil, err
		}
		return ScrapeInfo{Text: buf.String()}, nil
	case "drain":
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.DrainBudget)
		defer cancel()
		n.cfg.Logf("node %s: draining", n.cfg.Name)
		if err := n.sys.Drain(ctx); err != nil {
			return nil, err
		}
		return emptyBody{}, nil
	case "stop":
		n.cfg.Logf("node %s: stop requested", n.cfg.Name)
		// Reply first, then tear down: the caller's ok must beat the
		// connection reset.
		go func() {
			time.Sleep(50 * time.Millisecond)
			_ = n.Stop()
		}()
		return emptyBody{}, nil
	default:
		return nil, fmt.Errorf("unknown verb %q", verb)
	}
}

func unmarshalBody(body []byte, into any) error {
	if len(body) == 0 {
		return nil
	}
	return json.Unmarshal(body, into)
}

func (n *Node) status() StatusInfo {
	n.mu.Lock()
	inflight := 0
	for _, inst := range n.instances {
		if !inst.h.Done() {
			inflight++
		}
	}
	n.mu.Unlock()
	return StatusInfo{
		Name:      n.cfg.Name,
		Epoch:     n.epoch,
		Control:   n.ControlAddr(),
		Data:      n.DataAddr(),
		Draining:  n.sys.Draining(),
		Inflight:  inflight,
		Peers:     n.dir.records(),
		PeersDown: n.dir.downPeers(),
	}
}

// startInstance starts this node's locally-placed roles of one tagged
// workload instance. The tag is the cluster-wide instance identity: the
// driver issues the same tag to every node hosting roles of the action.
func (n *Node) startInstance(req StartRequest) (StartReply, error) {
	if req.Tag == "" {
		return StartReply{}, fmt.Errorf("start: empty tag")
	}
	// Re-check drain state before any dispatch work. A start racing a
	// drain verb could otherwise build the workload and register the
	// instance only for StartTagged to refuse — or, worse, slip in between
	// Drain's quiesce and the caller's shutdown. The typed refusal also
	// travels the wire: serveControl encodes it and Call re-wraps it, so a
	// remote driver can errors.Is(err, caaction.ErrDraining).
	if n.sys.Draining() {
		return StartReply{}, fmt.Errorf("start %q refused: %w", req.Tag, caaction.ErrDraining)
	}
	n.mu.Lock()
	if _, dup := n.instances[req.Tag]; dup {
		n.mu.Unlock()
		return StartReply{}, fmt.Errorf("start: duplicate tag %q", req.Tag)
	}
	n.mu.Unlock()

	inst := &instance{kind: req.Kind}
	obs := func(d load.Decision) {
		inst.mu.Lock()
		inst.decisions = append(inst.decisions, d)
		inst.mu.Unlock()
	}
	spec, progs, err := load.Workload(req.Kind, req.Roles, obs)
	if err != nil {
		return StartReply{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ActionTimeout)
	h, err := n.sys.StartTagged(ctx, req.Tag, spec, progs)
	if err != nil {
		cancel()
		return StartReply{}, err
	}
	inst.h = h
	inst.cancel = cancel
	n.mu.Lock()
	n.instances[req.Tag] = inst
	delete(n.recovering, req.Tag)
	n.mu.Unlock()
	if n.wal != nil {
		// Durable before the roles run: a crash from here on replays the
		// tag as an open instance.
		_ = n.wal.AppendInstanceStart(req.Tag, req.Kind, req.Roles)
	}
	// Release the timeout's resources as soon as the instance finishes,
	// and mark the tag concluded in the WAL so a later replay skips it.
	go func() {
		h.WaitDone()
		cancel()
		if n.wal != nil {
			_ = n.wal.AppendInstanceDone(req.Tag)
		}
	}()
	n.cfg.Logf("node %s: started %s roles %v tag=%s", n.cfg.Name, req.Kind, h.Roles(), req.Tag)
	return StartReply{Roles: h.Roles()}, nil
}

func (n *Node) result(tag string) (ResultInfo, error) {
	n.mu.Lock()
	inst := n.instances[tag]
	recovering, lost := n.recovering[tag], n.lost[tag]
	n.mu.Unlock()
	if inst == nil {
		switch {
		case lost:
			return ResultInfo{}, fmt.Errorf("result: tag %q: %w", tag, ErrLostToCrash)
		case recovering:
			// The boot replay knows the tag but has not re-started or
			// abandoned it yet; not typed — callers just poll again.
			return ResultInfo{}, fmt.Errorf("result: tag %q still recovering", tag)
		default:
			return ResultInfo{}, fmt.Errorf("result: tag %q: %w", tag, ErrUnknownTag)
		}
	}
	res := ResultInfo{Done: inst.h.Done(), Outcomes: make(map[string]string)}
	inst.h.Each(func(role string, err error) {
		res.Outcomes[role] = load.ClassifyRole(err)
	})
	inst.mu.Lock()
	res.Decisions = append(res.Decisions, inst.decisions...)
	inst.mu.Unlock()
	return res, nil
}

// recoverInstances drives the boot replay's §3.4 decision for every tag
// the write-ahead log left open: an instance still inside its
// ActionTimeout window is re-started under the same tag once the
// placement's peers answer hellos — its threads re-run the entry
// barrier, which surviving peers answer with a re-announce, and the
// resolution and exit protocols continue with the reborn roles — while
// an instance whose window has closed is abandoned deterministically and
// remembered as lost.
func (n *Node) recoverInstances() {
	defer n.wg.Done()
	for _, tag := range n.prior.OpenInstances() {
		inst := n.prior.Instances[tag]
		deadline := time.Unix(0, inst.StartedWall).Add(n.cfg.ActionTimeout)
		if !n.awaitPeers(deadline) {
			n.markLost(tag, "recovery window closed before peers were reachable")
			continue
		}
		if _, err := n.startInstance(StartRequest{Tag: tag, Kind: inst.Kind, Roles: inst.Roles}); err != nil {
			n.markLost(tag, err.Error())
			continue
		}
		n.cfg.Logf("node %s: re-joined instance tag=%s kind=%s", n.cfg.Name, tag, inst.Kind)
	}
}

// awaitPeers polls the directory until every placement peer is live, the
// deadline passes, or the node stops.
func (n *Node) awaitPeers(deadline time.Time) bool {
	names := make(map[string]bool)
	for _, node := range n.cfg.Placement {
		if node != n.cfg.Name {
			names[node] = true
		}
	}
	for {
		if time.Now().After(deadline) {
			return false
		}
		ready := true
		for name := range names {
			if n.dir.peerDown(name) {
				ready = false
				break
			}
		}
		if ready {
			return true
		}
		select {
		case <-n.done:
			return false
		case <-time.After(n.cfg.ExchangeEvery):
		}
	}
}

// markLost concludes a replayed tag as abandoned. The conclusion is
// written back to the WAL, so a second crash does not replay the tag a
// second time; the lost set itself is in-memory, so after a further
// restart the tag answers ErrUnknownTag like any other forgotten tag.
func (n *Node) markLost(tag, why string) {
	n.mu.Lock()
	delete(n.recovering, tag)
	n.lost[tag] = true
	n.mu.Unlock()
	if n.wal != nil {
		_ = n.wal.AppendInstanceDone(tag)
	}
	n.cfg.Logf("node %s: abandoned instance tag=%s after crash: %s", n.cfg.Name, tag, why)
}

// Drain gracefully quiesces the node's System; see System.Drain.
func (n *Node) Drain(ctx context.Context) error { return n.sys.Drain(ctx) }

// Stop tears the node down: control listener, in-flight instance
// cancellation, then the System (closing both the demultiplexer and the
// data listener). Safe to call more than once; Serve returns nil after
// the listener closes.
func (n *Node) Stop() error {
	var err error
	n.stop.Do(func() {
		n.cfg.Logf("node %s: stopping", n.cfg.Name)
		close(n.done)
		cerr := n.ctl.Close()
		n.mu.Lock()
		for _, inst := range n.instances {
			inst.cancel()
		}
		n.mu.Unlock()
		serr := n.sys.Close()
		var werr error
		if n.wal != nil {
			werr = n.wal.Close()
		}
		err = errors.Join(cerr, serr, werr)
	})
	return err
}
