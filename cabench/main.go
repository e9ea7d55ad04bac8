// Command cabench is the repository's benchmark: closed-loop CA-action
// workloads driven through the public caaction API with load's action
// shapes, printing end-to-end metrics (untraced run) or per-layer metrics
// (traced run) as one JSON line. See NOTES.md for the workloads, the
// layer map and the defects the figures show.
//
//	cabench --workload mix-inproc --seed 1 --seconds 10 --trace 0
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// setupRuns is how many Systems a run sets up to report setup_s as their
// median; the last one serves the measured window.
const setupRuns = 31

// warmup is how long a System runs before its window opens, so pools,
// caches and connections are in their steady state.
const warmup = time.Second

// windowSlices is how many equal slices a timed window is cut into.
// actions_per_s, latency_p99_ms and peak_heap_mb are medians over slices,
// so the CPU time the hypervisor steals in some of them, or one odd GC
// cycle, moves them less.
const windowSlices = 20

// groupSamples is how many samples a group of slices needs before its p99
// is used: a p99 over 10000 samples rests on 100 beyond it. Where slices
// are smaller (commit-wal), adjacent ones are merged.
const groupSamples = 10000

// quietShare: when every slice holds groupSamples on its own (the mix
// workloads), actions_per_s and latency_p99_ms come from the 1/quietShare
// of the slices that lost the least CPU time to the hypervisor. Where
// slices are merged (commit-wal, which also slows through the run, so its
// slices are not alike), every group is used.
const quietShare = 4

// spanCapacity bounds the traced run's span buffer (32 bytes a span).
const spanCapacity = 1 << 20

// spansPerAction over-estimates the spans one action leaves, to size the
// traced run's sampling so the buffer lasts the whole window.
const spansPerAction = 40

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and the human-readable lines printed before the
// result.
type report struct {
	out io.Writer
	res result
}

func (r *report) put(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// putQuantile reports the q-quantile of a duration histogram in unit
// ("ms" or "us") and notes how many samples it rests on.
func (r *report) putQuantile(name string, h *hist, q float64, unit string) {
	v := h.at(q) / unitNs[unit]
	r.put(name, v, unit)
	r.note("%s = %.4f %s (p%g of %d)", name, v, unit, q*100, h.len())
}

// putTail reports the tail rule's percentile of a duration histogram in
// unit and notes which percentile it is and on how many samples it rests.
func (r *report) putTail(name string, h *hist, unit string) {
	v, q, beyond := h.tail()
	v /= unitNs[unit]
	r.put(name, v, unit)
	r.note("%s = %.4f %s (p%g of %d, %d beyond)", name, v, unit, q*100, h.len(), beyond)
}

var unitNs = map[string]float64{"ms": 1e6, "us": 1e3}

// count adds a window's starts and failures to the result; one wrong
// outcome makes the run incorrect.
func (r *report) count(run string, t *tally) {
	r.res.Attempted += t.attempted
	r.res.Failed += t.startErrs + t.wrong
	if t.wrong > 0 {
		r.res.Correct = false
	}
	if t.firstErr != "" {
		r.note("%s run, first failure: %s", run, t.firstErr)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mix-inproc, mix-tcp, few-tcp or commit-wal")
	seed := fs.Int64("seed", 1, "seed of the action-kind sequence")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "cabench: need --workload (one of mix-inproc, mix-tcp, few-tcp, commit-wal), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	rep := &report{out: stdout, res: result{Correct: true, Metrics: make(map[string]metric)}}
	rep.note("cabench workload=%s seed=%d seconds=%d trace=%d callers=%d transport=%s wal=%v GOMAXPROCS=%d",
		w.name, *seed, *seconds, *trace, w.callers, w.transport, w.wal, runtime.GOMAXPROCS(0))
	if err := measure(rep, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(stderr, "cabench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintf(stderr, "cabench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.res.Correct {
		return 1
	}
	return 0
}

func measure(rep *report, w workload, seed int64, dur time.Duration, traced bool) error {
	kinds := genKinds(seed, w.mix, kindSeqLen)
	dir, err := walDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	timeWait := timeWaitSockets()
	rep.note("os.time_wait_start = %d", timeWait)
	res, setups, walAtEnd, err := untraced(rep, w, kinds, dir, dur)
	if err != nil {
		return err
	}
	rep.note("os.steal_frac = %.4f", res.stealFrac())
	good := float64(res.completed - res.wrong)
	aps := good / res.secs
	failedFrac := res.failedFrac()
	rep.note("actions: %d completed, %d start errors %v, %d wrong outcomes, failed_frac = %.6f",
		res.completed, res.startErrs, res.startByCause, res.wrong, failedFrac)
	if w.wal {
		rep.note("wal.state_actions_end = %d, wal.file_bytes_end = %d", walAtEnd.actions, walAtEnd.bytes)
	}

	if !traced {
		endToEnd(rep, res)
		rep.put("setup_s", median(setups), "s")
		rep.note("setup_s samples: %.6g", setups)
		rep.note("exception_p50_ms = %.4f ms (p50 of %d)", res.lat.exc.at(0.5)/1e6, res.lat.exc.len())
		return nil
	}

	// Traced run: the same workload on a System whose seams are wrapped.
	// The untraced window above is the baseline for the tracing overhead,
	// and it gives the end-to-end figures that tracing would distort.
	rep.put("failed_frac", failedFrac, "frac")
	rep.putQuantile("exception_p50_ms", &res.lat.exc, 0.5, "ms")
	rep.put("os.time_wait_start", float64(max(timeWait, 0)), "count")
	every := uint32(math.Ceil(aps * dur.Seconds() * spansPerAction / (0.6 * spanCapacity)))
	if w.transport == "tcp" {
		settleTimeWait(rep)
	}
	tr := newTracer(time.Now(), spanCapacity, every)
	tT := newTally()
	tb, _, err := setup(w, tr, filepath.Join(dir, "traced.wal"), &tT)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	tres, err := tb.closedLoop(w, kinds, warmup, dur, tr)
	if err != nil {
		return err
	}
	tWalEnd := tb.walEnd()
	if err := tb.close(); err != nil {
		return err
	}
	tres.merge(&tT)
	rep.count("traced", &tres.tally)
	layerMetrics(rep, w, tr, tres, aps, tWalEnd)
	return nil
}

// untraced sets up setupRuns Systems, keeps the last and runs its window.
// It returns the window, the set-up times and the WAL's size at the end.
func untraced(rep *report, w workload, kinds []uint8, dir string, dur time.Duration) (*windowResult, []float64, walEnd, error) {
	if w.transport == "tcp" {
		settleTimeWait(rep)
	}
	setupT := newTally()
	var setups []float64
	var b *bench
	for i := 0; i < setupRuns; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, nil, walEnd{}, err
			}
		}
		var took time.Duration
		var err error
		b, took, err = setup(w, nil, filepath.Join(dir, fmt.Sprintf("setup-%d.wal", i)), &setupT)
		if err != nil {
			return nil, nil, walEnd{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	// A failed loop leaves callers blocked in the System, so it is not
	// closed: the process exits with the error.
	res, err := b.closedLoop(w, kinds, warmup, dur, nil)
	if err != nil {
		return nil, nil, walEnd{}, err
	}
	end := b.walEnd()
	if err := b.close(); err != nil {
		return nil, nil, walEnd{}, err
	}
	res.merge(&setupT)
	rep.count("untraced", &res.tally)
	return res, setups, end, nil
}

// settleTimeWait waits, at most timeWaitPatience, until the sockets in
// TIME_WAIT number at most timeWaitSettled. few-tcp leaves about a
// thousand a second of run behind, and the kernel keeps each for 60 s;
// a TCP run that started among them would measure the runs before it
// (see NOTES.md). The count on arrival is reported as os.time_wait_start.
func settleTimeWait(rep *report) {
	start := time.Now()
	n := timeWaitSockets()
	for n > timeWaitSettled && time.Since(start) < timeWaitPatience {
		time.Sleep(time.Second)
		n = timeWaitSockets()
	}
	rep.note("TIME_WAIT sockets: %d after waiting %.0f s", n, time.Since(start).Seconds())
}

const (
	timeWaitSettled  = 10000
	timeWaitPatience = 45 * time.Second
)

type walEnd struct{ actions, bytes int64 }

// walEnd reads how many actions the WAL's state holds and how large its
// file is; zero without a WAL.
func (b *bench) walEnd() walEnd {
	if b.wal == nil {
		return walEnd{}
	}
	e := walEnd{actions: int64(len(b.wal.State().Actions))}
	if fi, err := os.Stat(b.walPath); err == nil {
		e.bytes = fi.Size()
	}
	return e
}

// endToEnd reports the untraced window's end-to-end metrics.
func endToEnd(rep *report, res *windowResult) {
	completed := float64(max(res.completed, 1))
	var counts [windowSlices]int
	for i := range res.lat.slices {
		counts[i] = res.lat.slices[i].len()
	}
	k := groupSize(counts[:], groupSamples)
	var rate, tail, steal []float64
	for g := 0; g < windowSlices; g += k {
		var h hist
		st := 0.0
		for i := g; i < g+k; i++ {
			h.merge(&res.lat.slices[i])
			st += res.sliceSteal[i] / float64(k)
		}
		v, q, beyond := h.tail()
		rate = append(rate, float64(h.len())/(res.secs*float64(k)/windowSlices))
		tail = append(tail, v/unitNs["ms"])
		steal = append(steal, st)
		rep.note("slices %d-%d: steal %.4f, %.1f actions/s, p%g %.4f ms (%d beyond)", g, g+k-1, st, rate[len(rate)-1], q*100, tail[len(tail)-1], beyond)
	}
	n := len(steal)
	if k == 1 {
		n = max(n/quietShare, 1)
	}
	use := quietest(steal, n)
	pick := func(v []float64) []float64 {
		out := make([]float64, len(use))
		for i, g := range use {
			out[i] = v[g]
		}
		return out
	}
	v, q, beyond := res.lat.all.tail()
	rep.note("groups of %d slices; used %v; over the whole window: %.1f actions/s, p%g %.4f ms (%d beyond)",
		k, use, float64(res.completed-res.wrong)/res.secs, q*100, v/unitNs["ms"], beyond)
	rep.put("actions_per_s", median(pick(rate)), "1/s")
	rep.putQuantile("latency_p50_ms", &res.lat.all, 0.5, "ms")
	rep.put("latency_p99_ms", median(pick(tail)), "ms")
	rep.putQuantile("commit_p50_ms", &res.lat.commit, 0.5, "ms")
	rep.put("allocs_per_action", float64(res.after.allocs-res.before.allocs)/completed, "count")
	rep.put("cpu_ms_per_action", float64(res.after.cpu-res.before.cpu)/1e6/completed, "ms")
	heap := make([]float64, windowSlices)
	for i, h := range res.sliceHeap {
		heap[i] = float64(h) / 1e6
	}
	rep.put("peak_heap_mb", median(heap), "MB")
	rep.note("peak_heap_mb = %.3f MB (median over %d slices; %.3f over the window)", median(heap), windowSlices, slices.Max(heap))
}

// quietest returns the indices of the n slices, or groups of slices, that
// lost the least CPU time to steal, in slice order; ties go to the earlier.
func quietest(steal []float64, n int) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(steal[a], steal[b]) })
	idx = idx[:n]
	slices.Sort(idx)
	return idx
}

// groupSize is the fewest adjacent slices per group, a divisor of
// len(counts), for which every group holds at least need samples, so each
// group's tail is a true p99; len(counts) when no smaller group size does.
func groupSize(counts []int, need int) int {
	n := len(counts)
	for k := 1; k < n; k++ {
		if n%k != 0 {
			continue
		}
		ok := true
		for g := 0; g < n && ok; g += k {
			sum := 0
			for _, c := range counts[g : g+k] {
				sum += c
			}
			ok = sum >= need
		}
		if ok {
			return k
		}
	}
	return n
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

// layerMetrics reports the traced window's per-layer figures.
func layerMetrics(rep *report, w workload, tr *tracer, res *windowResult, untracedAPS float64, wal walEnd) {
	completed := float64(max(res.completed, 1))
	tracedAPS := float64(res.completed-res.wrong) / res.secs
	rep.put("trace.actions_per_s", tracedAPS, "1/s")
	rep.put("trace.overhead_frac", 1-tracedAPS/untracedAPS, "frac")
	rep.note("tracing overhead: traced %.1f actions/s against untraced %.1f", tracedAPS, untracedAPS)

	// caaction: admission and mux.Open.
	l := res.lat
	rep.putQuantile("caaction.start_us.p50", &l.start, 0.5, "us")
	rep.putTail("caaction.start_us.p99", &l.start, "us")
	rep.put("caaction.start_errors.addr_bound", float64(res.startByCause["addr_bound"]), "count")
	rep.put("caaction.start_errors.other", float64(res.startByCause["other"]), "count")

	// core: entry barrier and exit vote exchange.
	rep.putQuantile("core.entry_us.p50", &l.entry, 0.5, "us")
	rep.putTail("core.entry_us.p99", &l.entry, "us")
	rep.putQuantile("core.exit_us.p50", &l.exit, 0.5, "us")
	rep.putTail("core.exit_us.p99", &l.exit, "us")

	// resolve, except, signal: exception paths.
	rep.putQuantile("resolve.round_us.p50", &l.round, 0.5, "us")
	rep.putTail("resolve.round_us.p99", &l.round, "us")
	rep.putQuantile("signal.exit_us.p50", &l.signalExit, 0.5, "us")
	rep.putQuantile("abort.undo_us.p50", &l.abortUndo, 0.5, "us")
	c := res.counters
	rounds := float64(max(c[cInstances], 1))
	rep.put("resolve.deliver_calls_per_round", float64(c[cDeliverCalls])/rounds, "count")
	rep.put("except.resolve_calls_per_round", float64(c[cResolveCalls])/rounds, "count")
	rep.note("resolution rounds (thread-rounds, one resolve.Instance each): %d", c[cInstances])
	rep.put("storm.instances_checked", float64(res.storms), "count")
	rep.put("storm.violations", float64(res.stormBad), "count")

	spans, dropped := tr.recorded()
	linkParents(spans)
	self := selfTimes(spans)
	var sends, binds, deliverSelf, walAll, walFirst, walLast hist
	third := (res.windowTo - res.windowFrom) / 3
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		d := s.end - s.start
		switch s.name {
		case spSend:
			sends.add(d)
		case spBind:
			binds.add(d)
		case spDeliver:
			deliverSelf.add(self[i])
		case spWAL:
			walAll.add(d)
			switch {
			case s.start < res.windowFrom+third:
				walFirst.add(d)
			case s.start >= res.windowTo-third:
				walLast.add(d)
			}
		}
	}
	rep.putQuantile("resolve.deliver_us.self", &deliverSelf, 0.5, "us")

	// transport: messages from the System's own counters.
	rep.put("transport.msgs_per_action", float64(res.msgs["msg.total"])/completed, "count")
	for _, k := range []string{"Enter", "ToBeSignalled", "Exception", "Suspended", "Commit", "App"} {
		rep.put("transport.msgs_per_action."+k, float64(res.msgs["msg."+k])/completed, "count")
	}
	rep.putQuantile("transport.send_us.p50", &sends, 0.5, "us")
	rep.putTail("transport.send_us.p99", &sends, "us")
	rep.put("transport.sends_per_action", float64(c[cSends])/completed, "count")
	rep.put("transport.binds_per_action", float64(c[cBinds])/completed, "count")
	rep.putQuantile("transport.bind_us.p50", &binds, 0.5, "us")

	// wal: group commit and compaction.
	rep.putQuantile("wal.append_us.p50", &walAll, 0.5, "us")
	rep.putTail("wal.append_us.p99", &walAll, "us")
	rep.put("wal.appends_per_action", float64(c[cWALAppends])/completed, "count")
	rep.put("wal.appends_inflight.mean", float64(c[cWALInflightSum])/float64(max(c[cWALAppends], 1)), "count")
	rep.putQuantile("wal.append_us.p50.first_third", &walFirst, 0.5, "us")
	rep.putQuantile("wal.append_us.p50.last_third", &walLast, 0.5, "us")
	rep.put("wal.state_actions_end", float64(wal.actions), "count")
	rep.put("wal.file_bytes_end", float64(wal.bytes), "bytes")

	// Go runtime and OS.
	b, a := res.before, res.after
	rep.put("go.gc_cpu_frac", (a.gcCPU-b.gcCPU)/math.Max(a.allCPU-b.allCPU, 1e-9), "frac")
	rep.put("go.sched_wait_us.p99", schedP99(b.sched, a.sched)*1e6, "us")
	rep.put("go.goroutines_peak", float64(res.peakG), "count")
	wall := a.wall.Sub(b.wall).Seconds()
	rep.put("os.cpu_busy_frac", (a.cpu-b.cpu).Seconds()/(wall*float64(runtime.NumCPU())), "frac")
	rep.put("os.steal_frac", res.stealFrac(), "frac")

	rep.put("trace.spans_dropped", float64(dropped), "count")
	rep.note("spans: %d kept (every %d-th instance and send), %d dropped", len(spans), tr.every, dropped)
	path := filepath.Join(".bench_build", "cabench", "spans-"+w.name+".tsv")
	if err := writeSpans(path, spans); err != nil {
		rep.note("spans not written: %v", err)
	} else {
		rep.note("spans written to %s", path)
	}
}
