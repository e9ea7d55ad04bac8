package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"caaction"
	"caaction/internal/transport"
	"caaction/load"
)

// roles is the number of roles (and thread addresses) of every action.
const roles = 3

// Action kinds, indexing per-kind tables.
const (
	kCommit = iota
	kSignal
	kAbort
	kStorm
	numKinds
)

var kindNames = [numKinds]string{load.KindCommit, load.KindSignal, load.KindAbort, load.KindStorm}

// workload is one closed-loop traffic shape. Every System is built with
// the library defaults except the real clock, the transport and the
// recorder: no worker pool, no admission budget, no GC tuning.
type workload struct {
	name      string
	callers   int
	mix       load.Mix
	transport string // "sim" or "tcp"
	wal       bool
}

var workloads = []workload{
	{name: "mix-inproc", callers: 16, mix: load.DefaultMix, transport: "sim"},
	{name: "mix-tcp", callers: 16, mix: load.DefaultMix, transport: "tcp"},
	{name: "few-tcp", callers: 2, mix: load.DefaultMix, transport: "tcp"},
	{name: "commit-wal", callers: 16, mix: load.Mix{Commit: 1}, transport: "sim", wal: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// kindSeqLen is the length of the pre-drawn kind sequence; callers walk it
// cyclically, which only matters past ~2M actions in one run.
const kindSeqLen = 1 << 21

// genKinds draws n action kinds from mix with a generator seeded by seed,
// so equal seeds give equal sequences.
func genKinds(seed int64, mix load.Mix, n int) []uint8 {
	weights := [numKinds]int{mix.Commit, mix.Signal, mix.Abort, mix.Storm}
	total := 0
	for _, w := range weights {
		total += w
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint8, n)
	for i := range out {
		r := rng.Intn(total)
		k := 0
		for r >= weights[k] {
			r -= weights[k]
			k++
		}
		out[i] = uint8(k)
	}
	return out
}

// action is one kind's spec and role programs, shared by all instances.
type action struct {
	kind  int
	spec  *caaction.Spec
	progs map[string]caaction.RoleProgram
}

// buildActions builds the kinds the workload's mix uses from load's action
// shapes. With a tracer, every role body reports its entry and return, the
// raising roles report when they raise, and storm handlers report their
// decisions; the specs and the protocol traffic stay the same.
func buildActions(w workload, tr *tracer) ([numKinds]*action, error) {
	var acts [numKinds]*action
	weights := [numKinds]int{w.mix.Commit, w.mix.Signal, w.mix.Abort, w.mix.Storm}
	for k := range acts {
		if weights[k] == 0 {
			continue
		}
		spec, progs, err := load.Workload(kindNames[k], roles, nil)
		if err != nil {
			return acts, err
		}
		if tr != nil {
			progs = tr.instrument(k, progs)
		}
		acts[k] = &action{kind: k, spec: spec, progs: progs}
	}
	return acts, nil
}

// instrument wraps one kind's role programs for the traced run.
func (t *tracer) instrument(kind int, progs map[string]caaction.RoleProgram) map[string]caaction.RoleProgram {
	out := make(map[string]caaction.RoleProgram, len(progs))
	for i := 0; i < roles; i++ {
		role := load.RoleName(i)
		p := progs[role]
		// A storm role and the signal kind's first role raise as soon as
		// their body starts, so body entry is their raise time.
		raisesAtEntry := kind == kStorm || (kind == kSignal && i == 0)
		if kind == kAbort && i == roles-1 {
			p.Body = t.abortRaiser()
		}
		p.Body = t.wrapBody(p.Body, raisesAtEntry)
		if kind == kStorm {
			p.Handlers = t.wrapHandlers(i, p.Handlers)
		}
		out[role] = p
	}
	return out
}

func (t *tracer) wrapBody(body func(*caaction.Context) error, raisesAtEntry bool) func(*caaction.Context) error {
	return func(ctx *caaction.Context) error {
		tag := tagNum(ctx.InstanceTag())
		s := t.slot(tag)
		start := t.now()
		atomicMax(&s.lastEntry, start)
		if raisesAtEntry {
			atomicMin(&s.firstRaise, start)
		}
		err := body(ctx)
		end := t.now()
		atomicMax(&s.lastReturn, end)
		if t.keepTag(tag) {
			t.add(spBody, start, end, tag)
		}
		return err
	}
}

// abortRaiser is load's abort-kind raiser (wait until every other role
// has announced its descent into the nested action, then raise "halt"),
// marking the moment it raises.
func (t *tracer) abortRaiser() func(*caaction.Context) error {
	return func(ctx *caaction.Context) error {
		for i := 0; i < roles-1; i++ {
			if _, err := ctx.Recv(load.RoleName(i)); err != nil {
				return err
			}
		}
		atomicMin(&t.slot(tagNum(ctx.InstanceTag())).firstRaise, t.now())
		return ctx.Raise("halt", "load abort")
	}
}

// wrapHandlers records, per instance, which exception role i resolved and
// the raised set it resolved it from.
func (t *tracer) wrapHandlers(i int, hs map[caaction.Exception]caaction.Handler) map[caaction.Exception]caaction.Handler {
	out := make(map[caaction.Exception]caaction.Handler, len(hs))
	for exc, h := range hs {
		out[exc] = func(ctx *caaction.Context, resolved caaction.Exception, raised []caaction.Raised) error {
			s := t.slot(tagNum(ctx.InstanceTag()))
			atomicMax(&s.lastHandler, t.now())
			s.dec[i] = decision{resolved: resolved, raised: caaction.ExceptionsOf(raised)}
			s.handled[i].Add(1)
			return h(ctx, resolved, raised)
		}
	}
	return out
}

// stormAgrees checks the paper's per-round invariants on one storm
// instance: every role handled exactly once, all resolved the same
// exception, and it covers every exception each role saw raised.
func stormAgrees(g *caaction.Graph, s *instSlot) error {
	for i := range s.handled {
		if n := s.handled[i].Load(); n != 1 {
			return fmt.Errorf("role %s handled %d times", load.RoleName(i), n)
		}
	}
	want := s.dec[0].resolved
	for i, d := range s.dec {
		if d.resolved != want {
			return fmt.Errorf("role %s resolved %s, role %s resolved %s", load.RoleName(i), d.resolved, load.RoleName(0), want)
		}
		for _, r := range d.raised {
			if !g.Covers(d.resolved, r) {
				return fmt.Errorf("role %s resolved %s, which does not cover raised %s", load.RoleName(i), d.resolved, r)
			}
		}
	}
	return nil
}

// bench is one System and the actions it runs.
type bench struct {
	sys     *caaction.System
	wal     *caaction.WAL
	walPath string
	acts    [numKinds]*action
}

// openBench opens the WAL (for commit-wal), builds a System for w and
// builds its actions. With a tracer, the transport, resolver and recorder
// seams are wrapped.
func openBench(w workload, tr *tracer, walPath string) (*bench, error) {
	b := &bench{}
	opts := []caaction.Option{caaction.WithRealTime()}
	if tr == nil {
		if w.transport == "tcp" {
			opts = append(opts, caaction.WithTCPTransport(""))
		} else {
			opts = append(opts, caaction.WithSimTransport(0))
		}
	} else {
		name := "cabench-" + w.transport
		f, err := tracedTransport(w.transport, tr)
		if err != nil {
			return nil, err
		}
		caaction.RegisterTransport(name, f)
		p, err := caaction.Resolver("coordinated")
		if err != nil {
			return nil, err
		}
		opts = append(opts, caaction.WithTransport(name),
			caaction.WithResolutionProtocol(tracedProtocol{inner: p, tr: tr}))
	}
	if w.wal {
		wal, err := caaction.OpenWAL(walPath, 0)
		if err != nil {
			return nil, err
		}
		b.wal, b.walPath = wal, walPath
		var rec caaction.Recorder = wal
		if tr != nil {
			rec = &tracedRecorder{inner: wal, tr: tr}
		}
		opts = append(opts, caaction.WithRecorder(rec))
	}
	sys, err := caaction.New(opts...)
	if err != nil {
		if b.wal != nil {
			b.wal.Close()
		}
		return nil, err
	}
	b.sys = sys
	if b.acts, err = buildActions(w, tr); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *bench) close() error {
	err := b.sys.Close()
	if b.wal != nil {
		if cerr := b.wal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// outcome reduces an instance's role outcomes the way load classifies
// them; a missing role outcome is reported as such.
func outcome(h *caaction.ActionHandle) string {
	var outs [roles]string
	n := 0
	h.Each(func(_ string, err error) {
		if n < roles {
			outs[n] = load.ClassifyRole(err)
		}
		n++
	})
	if n != roles {
		return fmt.Sprintf("error: %d of %d roles finished", n, roles)
	}
	return load.MergeOutcomes(outs[:]...)
}

// startCause buckets a StartAction error for caaction.start_errors.
func startCause(err error) string {
	if errors.Is(err, transport.ErrDuplicateAddr) {
		return "addr_bound"
	}
	return "other"
}

// tally is what one caller saw; callers own theirs and the run merges
// them when every caller has stopped.
type tally struct {
	attempted, completed, startErrs, wrong int
	startByCause                           map[string]int
	firstErr                               string

	// Traced run only: storm instances checked and found in violation.
	storms, stormBad int
}

// latencies are the window's duration histograms, shared by its callers.
type latencies struct {
	// Correct completions, from the StartAction call to WaitDone: all
	// kinds, the commit kind, and the exception kinds (signal, abort,
	// storm).
	all, commit, exc hist
	// The all-kinds latencies again, split by the slice of the window
	// in which the action completed.
	slices [windowSlices]hist
	// Traced run only: per-instance layer timings (see layers).
	start, entry, exit, round, signalExit, abortUndo hist
}

func newTally() tally {
	return tally{startByCause: make(map[string]int)}
}

// failedFrac is start errors plus wrong outcomes over attempted starts.
func (t *tally) failedFrac() float64 {
	return float64(t.startErrs+t.wrong) / float64(max(t.attempted, 1))
}

func (t *tally) fail(msg string) {
	if t.firstErr == "" {
		t.firstErr = msg
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.completed += o.completed
	t.startErrs += o.startErrs
	t.wrong += o.wrong
	t.storms += o.storms
	t.stormBad += o.stormBad
	for c, n := range o.startByCause {
		t.startByCause[c] += n
	}
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// setup opens a System and runs commit actions until the first completes,
// as a user's first action would; it returns the System and the time that
// took. The kind is fixed, not drawn from the seed, because the kinds take
// different times and setup_s should not depend on which came first. Start
// failures on the way are counted in t.
func setup(w workload, tr *tracer, walPath string, t *tally) (*bench, time.Duration, error) {
	start := time.Now()
	b, err := openBench(w, tr, walPath)
	if err != nil {
		return nil, 0, err
	}
	const k = kCommit
	a := b.acts[k]
	for i := 0; ; i++ {
		t.attempted++
		h, err := b.sys.StartAction(context.Background(), a.spec, a.progs)
		if err != nil {
			t.startErrs++
			t.fail("setup: " + err.Error())
			if i >= 1000 {
				b.close()
				return nil, 0, fmt.Errorf("no action completed in 1000 starts: %w", err)
			}
			continue
		}
		h.WaitDone()
		took := time.Since(start)
		if tr != nil {
			tr.slot(tagNum(h.ID())).reset()
		}
		t.completed++
		if got, want := outcome(h), load.Expect(kindNames[k]); got != want {
			t.wrong++
			t.fail(fmt.Sprintf("setup action %s (%s): outcome %q, want %q", h.ID(), kindNames[k], got, want))
		}
		return b, took, nil
	}
}

// windowResult is one timed window of a closed loop.
type windowResult struct {
	tally
	lat           *latencies
	secs          float64
	before, after runtimeSnap          // process readings as the window opens and closes
	sliceHeap     [windowSlices]uint64 // live-heap maximum per slice
	peakG         uint64
	counters      counters // tracer counters over the window
	msgs          map[string]int64
	windowFrom    int64 // ns since the loop's base
	windowTo      int64
	sliceSteal    [windowSlices]float64 // stolen share of the machine's CPU time per slice
}

// stealFrac is the share of the machine's CPU time the hypervisor stole
// during the window.
func (r *windowResult) stealFrac() float64 {
	total := r.after.machine - r.before.machine
	if total == 0 {
		return 0
	}
	return float64(r.after.steal-r.before.steal) / float64(total)
}

// closedLoop runs w.callers callers against b: each starts an action of
// the next pre-drawn kind, waits for its outcome and starts the next. The
// first warm of the run is not measured; then a window of dur is. An
// action belongs to the window in which its outcome (or start error) is
// known.
func (b *bench) closedLoop(w workload, kinds []uint8, warm, dur time.Duration, tr *tracer) (*windowResult, error) {
	base := time.Now()
	if tr != nil {
		base = tr.base
	}
	now := func() int64 { return int64(time.Since(base)) }
	from := now() + int64(warm)
	to := from + int64(dur)
	var next atomic.Int64
	var stop atomic.Bool
	lat := new(latencies)
	tallies := make([]tally, w.callers)
	var wg sync.WaitGroup
	for c := range tallies {
		tallies[c] = newTally()
		t := &tallies[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				idx := next.Add(1) - 1
				k := int(kinds[idx%int64(len(kinds))])
				a := b.acts[k]
				t0 := now()
				h, err := b.sys.StartAction(context.Background(), a.spec, a.progs)
				t1 := now()
				if err != nil {
					if t1 >= from && t1 <= to {
						t.attempted++
						t.startErrs++
						t.startByCause[startCause(err)]++
						t.fail("start: " + err.Error())
					}
					continue
				}
				h.WaitDone()
				t2 := now()
				if t2 < from || t2 > to {
					if tr != nil {
						tr.slot(tagNum(h.ID())).reset()
					}
					continue
				}
				t.attempted++
				t.completed++
				if got, want := outcome(h), load.Expect(kindNames[k]); got != want {
					t.wrong++
					t.fail(fmt.Sprintf("action %s (%s): outcome %q, want %q", h.ID(), kindNames[k], got, want))
					continue
				}
				if tr != nil && !t.layers(tr, lat, a, h.ID(), t0, t1, t2) {
					continue
				}
				lat.all.add(t2 - t0)
				lat.slices[sliceOf(t2, from, to)].add(t2 - t0)
				if k == kCommit {
					lat.commit.add(t2 - t0)
				} else {
					lat.exc.add(t2 - t0)
				}
			}
		}()
	}

	res := &windowResult{tally: newTally(), lat: lat, windowFrom: from, windowTo: to}
	read := func() runtimeSnap {
		r := readRuntime()
		r.msgs = b.sys.Metrics().Snapshot()
		if tr != nil {
			r.tracerC = tr.read()
		}
		return r
	}
	time.Sleep(time.Until(base.Add(time.Duration(from))))
	res.before = read()
	if tr != nil {
		tr.on.Store(true)
	}
	peaks := startPeaks()
	total, steal := res.before.machine, res.before.steal
	for i := range res.sliceSteal {
		time.Sleep(time.Until(base.Add(time.Duration(from + (to-from)*int64(i+1)/windowSlices))))
		t, s := machineCPU()
		if t > total {
			res.sliceSteal[i] = float64(s-steal) / float64(t-total)
		}
		total, steal = t, s
		res.sliceHeap[i] = peaks.takeHeap()
	}
	if tr != nil {
		tr.on.Store(false)
	}
	res.after = read()
	res.peakG = peaks.finish()
	if tr != nil {
		res.counters = res.after.tracerC.minus(res.before.tracerC)
	}
	stop.Store(true)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("callers still blocked 30s after the window closed")
	}
	res.secs = float64(to-from) / 1e9
	for c := range tallies {
		res.merge(&tallies[c])
	}
	res.msgs = make(map[string]int64)
	for name, v := range res.after.msgs {
		res.msgs[name] = v - res.before.msgs[name]
	}
	return res, nil
}

// sliceOf is the slice of the window [from, to] that instant t falls in.
func sliceOf(t, from, to int64) int {
	return min(max(int((t-from)*windowSlices/max(to-from, 1)), 0), windowSlices-1)
}

// layers derives one instance's per-layer timings from what its role
// programs observed, records its action-level spans and checks a storm's
// agreement. It reports false when the storm check failed.
func (t *tally) layers(tr *tracer, lat *latencies, a *action, id string, t0, t1, t2 int64) bool {
	tag := tagNum(id)
	s := tr.slot(tag)
	defer s.reset()
	entry, ret := s.lastEntry.Load(), s.lastReturn.Load()
	raise, handler := s.firstRaise.Load(), s.lastHandler.Load()
	keep := tr.keepTag(tag)
	lat.start.add(t1 - t0)
	lat.entry.add(entry - t0)
	if keep {
		tr.add(spAction, t0, t2, tag)
		tr.add(spStart, t0, t1, tag)
		tr.add(spEntry, t0, entry, tag)
	}
	switch a.kind {
	case kCommit:
		lat.exit.add(t2 - ret)
		if keep {
			tr.add(spExit, ret, t2, tag)
		}
	case kSignal:
		lat.signalExit.add(t2 - raise)
	case kAbort:
		lat.abortUndo.add(t2 - raise)
	case kStorm:
		t.storms++
		if err := stormAgrees(a.spec.Graph, s); err != nil {
			t.stormBad++
			t.wrong++
			t.fail(fmt.Sprintf("storm %s: %v", id, err))
			return false
		}
		lat.round.add(handler - raise)
		if keep {
			tr.add(spRound, raise, handler, tag)
		}
	}
	return true
}

// walDir is where commit-wal keeps its logs, inside the checkout it runs
// from (on its disk, not a tmpfs).
func walDir() (string, error) {
	dir := filepath.Join(".bench_build", "cabench", fmt.Sprintf("wal-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
