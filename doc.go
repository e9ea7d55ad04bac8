// Package caaction is a Go reproduction of "Coordinated Exception Handling
// in Distributed Object Systems: from Model to System Implementation"
// (J. Xu, A. Romanovsky, B. Randell; ICDCS 1998): coordinated atomic (CA)
// actions with exception graphs, a distributed algorithm for resolving
// concurrently raised exceptions, a distributed exception-signalling
// algorithm, baseline algorithms for comparison, and the industrial
// production-cell case study.
//
// This package is the public API. A System — assembled with New and
// functional options — hosts Threads that perform CA actions described by
// Specs built fluently with NewSpec:
//
//	sys, err := caaction.New(
//		caaction.WithVirtualTime(),
//		caaction.WithSimTransport(5*time.Millisecond),
//	)
//	spec, err := caaction.NewSpec("transfer").
//		Role("producer", "T1").
//		Role("consumer", "T2").
//		Exception("bad_checksum").
//		Build()
//	t1, err := sys.Thread("T1")
//	err = t1.Perform(ctx, spec, "producer", caaction.RoleProgram{Body: ...})
//
// Perform is context-aware: cancelling ctx unwinds the role through the
// runtime's cooperative interrupt path. Exceptional outcomes are typed —
// errors.Is(err, caaction.ErrSignalled) matches any signalled exception and
// AsSignalled (or errors.As) recovers the ε/µ/ƒ that was signalled.
// Resolution protocols ("coordinated", "cr86", "r96") and transports
// ("sim", "tcp") are selectable by name through registries, including from
// command-line flags. The TCP transport speaks a length-prefixed binary
// wire codec (hand-rolled for the nine protocol messages, with reused
// encode buffers).
//
// One System hosts any number of concurrent CA-action instances:
// System.StartAction runs every role of a spec on its own goroutine and
// returns an ActionHandle for the instance's per-role outcomes, with
// instances of the same spec — same action names, same thread bindings —
// kept separate on the wire by per-instance identifier tags that a
// demultiplexing layer routes by (one shared transport endpoint per thread
// address, no matter how many instances are in flight; completed instances
// are garbage-collected). Thread.Perform remains the single-action N=1 case
// of the same machinery.
//
// Sustained high-concurrency churn is cheap by construction: WithWorkers(n)
// runs StartAction roles on a resident pool of n role workers (size it at
// roughly concurrent-actions x roles; dispatch is all-or-nothing per
// action, so the pool can never deadlock holding partial worker sets, and
// wider actions fall back to a goroutine per role), while threads, action
// frames, signalling engines and the demultiplexer's virtual endpoints are
// recycled through scrubbed pools — reuse carries zero state across
// instances, pinned by field-level hygiene tests and byte-identical golden
// chaos traces on warm pools. Under the real clock the demultiplexer also
// runs a run-to-completion delivery lane: protocol steps between co-located
// threads execute on the sender's goroutine against the receiver's parked
// continuation, so a causal chain of ready steps crosses zero scheduler
// hand-offs and same-process delivery skips the codec entirely (see
// DESIGN.md, "Event-loop core"). WithoutInlineDelivery restores the
// queue-per-thread model, and WithMuxShards sizes the lock-striped address
// table the lane runs over. The TCP transport coalesces outbound binary
// frames per peer connection on the real clock (flushed at a byte bound or
// a 100µs wall-clock deadline; order preserved, Close flushes — see
// DESIGN.md for the exact flush-deadline semantics).
//
// Production overload control is built in. WithMaxInFlight(n) bounds the
// actions admitted concurrently: past the budget, StartAction, StartTagged
// and Thread fail fast with a typed *OverloadedError (errors.Is-matchable
// via ErrOverloaded, carrying the refusing limit) instead of queueing work
// the system cannot finish. WithTenantBudget(n) adds a per-tenant bound
// under the global one — callers label instances with the WithTenant start
// option, and a tenant at its cap is refused (with the tenant named in the
// error) while others are still admitted. A deadline on StartAction's ctx
// propagates into the runtime: every protocol wait is clamped by it, so a
// doomed action undoes its local effects and unwinds at the deadline —
// releasing its admission slot — rather than consuming budget to complete
// work whose caller has already given up (outcomes match ErrDeadline and
// context.DeadlineExceeded; an already-expired ctx is refused up front).
// For observability, the interned trace counters are exportable in the
// Prometheus text format: WithMetricsAddr("host:port") serves them at
// /metrics over HTTP (Metrics().WritePrometheus writes the same text), and
// cluster nodes additionally answer a control-port "scrape" verb.
//
// The caaction/load subpackage drives thousands of such instances with a
// mixed commit/exceptional/abort/storm workload (CLI-configurable via
// cmd/caload -mix) and reports throughput, latency percentiles, goroutine
// and heap high-water marks, and a concurrency-scaling sweep
// (-sweep 64,256,1024); cmd/caload records the numbers as BENCH_load.json,
// which cmd/perfgate holds future changes to. Its open-loop mode
// (-arrival 4000,12000,24000) offers clock-driven load independent of
// completions — the production traffic shape — and records the
// offered-vs-goodput overload curve against the admission budget, which
// the perf gate holds alongside the closed-loop numbers.
//
// A System can also span OS processes. WithCluster puts the TCP transport
// in node mode: one shared data listener per process, a placement callback
// deciding which thread addresses are local, and a resolver callback
// mapping every remote thread to the host:port of the node currently
// hosting it — consulted per send, so restarted peers heal without
// connection bookkeeping. Action instances span nodes by sharing a
// driver-assigned tag (System.StartTagged); each node starts only its
// locally-placed roles and the entry barrier, resolution and exit protocol
// run over node-qualified frames exactly as in one process. Sends to
// threads whose node is unknown or down fail with ErrUnreachable, and
// graceful shutdown is Drain (refuse new instances with ErrDraining, wait
// for in-flight ones) then Close. The caaction/cluster subpackage builds
// full nodes on this — peer discovery from seeds, liveness, a
// line-delimited control protocol — cmd/canode is the daemon, and
// caaction/cluster/testnet scripts a multi-process local cluster with a
// kill+restart chaos scenario (canode -testnet).
//
// Cross-node traffic rides one batched path: all messages
// bound for one peer node within a coalesce window flush as a single
// batched node frame (one header plus length-delimited entries, bounded
// by the 64 KiB flush threshold and the per-message frame cap), with
// thread→node resolution cached per flush window and receive-side frame
// buffers and deliveries pooled. Flow control is credit-based per peer:
// the accepting side advertises a message window (default 4096;
// WithPeerWindow tunes it) and grants more as it drains, while a sender
// past the window parks at most one further window before sends fail
// with the typed ErrPeerStalled — so per-peer buffering is bounded at
// two windows and overload surfaces at the sender. See DESIGN.md
// "Cross-node fast path" for the wire format, the credit protocol and
// the benchmark that gates it.
//
// Crashes need not be amnesiac. WithRecorder(r) streams every protocol
// state transition — joins, raise/exit votes, concluded outcomes — to a
// Recorder; OpenWAL(path, snapshotEvery) is the durable implementation, a
// group-commit fsynced write-ahead log that compacts itself every
// snapshotEvery records and tolerates a torn tail on replay. A restarted
// process reads the prior WALState back and applies the paper's §3.4
// decision per action: a concluded outcome is recovered from the log, an
// instance still inside its resolution window is re-joined live, and
// anything older is abandoned deterministically. cluster.Config.WALDir
// (the canode -wal-dir flag) wires this into a node: boot replays
// <wal-dir>/<name>.wal, re-starts in-window instances under their original
// tags once peers answer, and answers result queries for abandoned tags
// with the typed cluster.ErrLostToCrash — distinguishable over the control
// protocol from an unknown tag (cluster.ErrUnknownTag). The chaos engine's
// restart scenario class (chaos.GenerateRestart) pins all three shapes
// with golden traces on the virtual clock, and canode -testnet -waldir
// asserts a SIGKILLed node's reborn incarnation re-joins the round it died
// in.
//
// The implementation lives under internal/ (see DESIGN.md for the map);
// the production-cell case study is re-exported as caaction/prodcell, the
// paper's evaluation harness as caaction/experiments, and the deterministic
// chaos engine — seeded fault-injection scenarios checked against the
// paper's invariants, with a same-seed ⇒ identical-trace replay contract —
// as caaction/chaos. Runnable entry points are in cmd/ and examples/: the
// paper's entire evaluation is regenerated by cmd/caexperiments and the
// benchmarks in bench_test.go, cmd/cachaos drives long chaos sweeps, and
// cmd/canode deploys a multi-process cluster.
package caaction
