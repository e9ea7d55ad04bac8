package main

import (
	"bufio"
	"math"
	"math/bits"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over 500 samples rests on five values and is noise.
const minBeyond = 10

// tailLevels are the percentiles the tail rule chooses from, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// tailQuantile returns the highest of tailLevels not above maxQ that leaves
// at least minBeyond of n samples beyond it, and how many lie beyond. ok is
// false when n is too small for even the median.
func tailQuantile(n int, maxQ float64) (q float64, beyond int, ok bool) {
	for _, l := range tailLevels {
		if l > maxQ {
			continue
		}
		b := n - rankOf(n, l)
		if b >= minBeyond {
			return l, b, true
		}
	}
	return 0, 0, false
}

// rankOf is the 1-based nearest-rank position of quantile q in n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// hist is a log-linear histogram of durations in nanoseconds: subBuckets
// buckets per power of two, so a quantile read from it is within 1% of the
// sample it stands for. Its memory is fixed, so a long window does not
// grow the heap the benchmark measures, and callers add to it with atomic
// increments.
type hist struct {
	counts [histExps * subBuckets]atomic.Uint64
	n      atomic.Int64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits
	histExps   = 48 // up to 2^48 ns, three days
)

func (h *hist) add(ns int64) {
	h.counts[bucketOf(ns)].Add(1)
	h.n.Add(1)
}

func (h *hist) len() int { return int(h.n.Load()) }

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
}

// bucketOf maps a duration to its bucket: values below subBuckets ns get
// a bucket each, larger ones share a power of two among subBuckets.
func bucketOf(ns int64) int {
	if ns < subBuckets {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - subBits // >= 1
	i := e*subBuckets + int(uint64(ns)>>(e-1)) - subBuckets
	return min(i, histExps*subBuckets-1)
}

// bucketBounds is the interval [lo, hi) of durations in bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i < subBuckets {
		return float64(i), float64(i + 1)
	}
	e, m := i/subBuckets, i%subBuckets
	w := math.Ldexp(1, e-1)
	return float64(subBuckets+m) * w, float64(subBuckets+m+1) * w
}

// at returns the nearest-rank q-quantile, placed within its bucket by its
// rank among the bucket's samples; 0 for an empty histogram.
func (h *hist) at(q float64) float64 {
	n := h.len()
	if n == 0 {
		return 0
	}
	r := rankOf(n, q)
	for i := range h.counts {
		c := h.counts[i].Load()
		if r <= int(c) {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(float64(r)-0.5)/float64(c)
		}
		r -= int(c)
	}
	return 0
}

// tail applies the tail rule with p99 as the ceiling.
func (h *hist) tail() (v, q float64, beyond int) {
	q, beyond, ok := tailQuantile(h.len(), 0.99)
	if !ok {
		return 0, 0, 0
	}
	return h.at(q), q, beyond
}

// runtimeSnap is a point-in-time reading of process counters; two of them
// bracket a timed window.
type runtimeSnap struct {
	allocs uint64
	gcCPU  float64
	allCPU float64
	sched  *metrics.Float64Histogram
	cpu    time.Duration // getrusage user+sys
	wall   time.Time
	// The machine's CPU time and the part of it the hypervisor stole,
	// in clock ticks (/proc/stat).
	machine, steal uint64
	msgs           map[string]int64
	tracerC        counters
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	r := runtimeSnap{
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		allCPU: s[2].Value.Float64(),
		sched:  s[3].Value.Float64Histogram(),
		cpu:    processCPU(),
		wall:   time.Now(),
	}
	r.machine, r.steal = machineCPU()
	return r
}

// machineCPU reads the machine's total CPU time and its steal time from
// the first line of /proc/stat; zero when that is unreadable.
func machineCPU() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fs := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fs) < 9 || fs[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fs[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// schedP99 is the p99 of scheduling latency over the samples taken
// between two histogram readings, as the upper bound of its bucket.
func schedP99(before, after *metrics.Float64Histogram) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var acc uint64
	for i, c := range delta {
		acc += c
		if acc >= want {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// peakSampler tracks live-heap and goroutine maxima every few milliseconds
// between start and stop. The live heap is what the last GC marked, so
// the peak does not depend on when in its cycle the collector was sampled.
// The heap maximum restarts at every takeHeap.
type peakSampler struct {
	stop, done chan struct{}
	heap       atomic.Uint64
	goroutines uint64
}

func startPeaks() *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		s := []metrics.Sample{
			{Name: "/gc/heap/live:bytes"},
			{Name: "/sched/goroutines:goroutines"},
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h := s[0].Value.Uint64()
			for old := p.heap.Load(); h > old && !p.heap.CompareAndSwap(old, h); old = p.heap.Load() {
			}
			p.goroutines = max(p.goroutines, s[1].Value.Uint64())
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// takeHeap returns the live-heap maximum since the sampler started or
// since the last call, and starts the next.
func (p *peakSampler) takeHeap() uint64 { return p.heap.Swap(0) }

// finish stops the sampler and returns the goroutine maximum.
func (p *peakSampler) finish() (goroutines uint64) {
	close(p.stop)
	<-p.done
	return p.goroutines
}

// timeWaitSockets counts TCP sockets in TIME_WAIT (state 06) in
// /proc/net/tcp and /proc/net/tcp6: ports a previous run left behind that
// new dials may have to skip. -1 when neither file is readable.
func timeWaitSockets() int {
	n, read := 0, false
	for _, path := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		read = true
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fs := strings.Fields(sc.Text()); len(fs) > 3 && fs[3] == "06" {
				n++
			}
		}
		f.Close()
	}
	if !read {
		return -1
	}
	return n
}
