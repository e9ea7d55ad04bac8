package load

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"caaction"
)

// SoakConfig parameterises RunSoak: a duration-bounded endurance run whose
// point is not throughput but stability — drivers keep starting actions
// until the window elapses while a sampler records the process's goroutine
// count and live heap at a fixed interval, so a leak (role runners that
// pile up, endpoints that never recycle, buffers that only grow)
// shows up as monotonic growth across the samples even when every
// fixed-action run looks healthy.
type SoakConfig struct {
	Config
	// Duration is the soak window: drivers stop claiming new actions once it
	// elapses and in-flight instances drain, so the measured wall time is
	// slightly longer than the window (see SoakReport.WallSecs).
	Duration time.Duration
	// SampleEvery is the leak-sample interval. Zero derives Duration/16,
	// clamped to [250ms, 5s].
	SampleEvery time.Duration
}

// SoakSample is one leak-detector reading: cumulative completed actions and
// the process-wide goroutine count and live-heap bytes at AtSecs into the
// soak window.
type SoakSample struct {
	AtSecs     float64 `json:"at_seconds"`
	Actions    int64   `json:"actions"`
	Goroutines int     `json:"goroutines"`
	HeapBytes  uint64  `json:"heap_bytes"`
}

// SoakReport is the outcome of one soak run. The leak gates are the growth
// fields: steady-state goroutine and heap growth between a post-warmup
// baseline sample (one quarter into the window) and the final sample, taken
// at window close while load is still applied — a healthy run holds both
// near zero no matter how long the window is.
type SoakReport struct {
	Config       Config       `json:"config"`
	DurationSecs float64      `json:"duration_seconds"` // the configured window
	WallSecs     float64      `json:"wall_seconds"`     // window + in-flight drain
	Actions      int64        `json:"actions"`
	Throughput   float64      `json:"actions_per_second"`
	Samples      []SoakSample `json:"samples"`
	// GoroutineGrowth and HeapGrowthBytes compare the final sample against
	// the post-warmup baseline; see LeakCheck.
	GoroutineGrowth int            `json:"goroutine_growth"`
	HeapGrowthBytes int64          `json:"heap_growth_bytes"`
	Outcomes        map[string]int `json:"outcomes"`
	// UnexpectedCount counts every outcome that did not match its kind's
	// expectation; Unexpected retains only the first few as diagnostics.
	UnexpectedCount int      `json:"unexpected_count,omitempty"`
	Unexpected      []string `json:"unexpected,omitempty"`
}

// maxSoakDiagnostics bounds the retained Unexpected examples: a soak that
// misbehaves for minutes must not grow an unbounded diagnostic slice.
const maxSoakDiagnostics = 16

// soakSchedule normalises the sample interval: an explicit interval is taken
// as given, zero derives one sixteenth of the window clamped to [250ms, 5s]
// — frequent enough that a 30s smoke soak yields a usable growth series,
// coarse enough that an hours-long soak doesn't accumulate thousands of
// samples.
func soakSchedule(duration, every time.Duration) time.Duration {
	if every > 0 {
		return every
	}
	every = duration / 16
	if every < 250*time.Millisecond {
		every = 250 * time.Millisecond
	}
	if every > 5*time.Second {
		every = 5 * time.Second
	}
	return every
}

// leakGrowth computes the goroutine and heap growth between the post-warmup
// baseline sample — one quarter into the series, past pool fill and first-GC
// transients — and the final sample. Fewer than two samples (a window
// shorter than the interval) reports zero growth: there is no steady state
// to compare.
func leakGrowth(samples []SoakSample) (goroutines int, heapBytes int64) {
	if len(samples) < 2 {
		return 0, 0
	}
	base := samples[len(samples)/4]
	last := samples[len(samples)-1]
	return last.Goroutines - base.Goroutines,
		int64(last.HeapBytes) - int64(base.HeapBytes)
}

// LeakCheck applies the soak's leak gates: it returns a non-nil error when
// steady-state goroutine growth exceeds maxGoroutines or steady-state heap
// growth exceeds maxHeapBytes. Non-positive bounds disable the respective
// gate.
func (r *SoakReport) LeakCheck(maxGoroutines int, maxHeapBytes int64) error {
	if maxGoroutines > 0 && r.GoroutineGrowth > maxGoroutines {
		return fmt.Errorf("load: soak leaked goroutines: steady-state growth %d > %d",
			r.GoroutineGrowth, maxGoroutines)
	}
	if maxHeapBytes > 0 && r.HeapGrowthBytes > maxHeapBytes {
		return fmt.Errorf("load: soak leaked heap: steady-state growth %d bytes > %d",
			r.HeapGrowthBytes, maxHeapBytes)
	}
	return nil
}

// RunSoak executes one duration-bounded soak run. It is synchronous: when it
// returns, the window has elapsed, every in-flight instance has completed
// and the System is closed. The workload cycles through the same
// deterministic kind sequence a fixed-action run of cfg.Config would use.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("load: RunSoak needs a positive duration, got %v", cfg.Duration)
	}
	c := cfg.Config.withDefaults()
	every := soakSchedule(cfg.Duration, cfg.SampleEvery)

	sysMetrics := &caaction.Metrics{}
	opts := []caaction.Option{
		caaction.WithRealTime(),
		caaction.WithMetrics(sysMetrics),
	}
	switch c.Transport {
	case "sim":
		opts = append(opts, caaction.WithSimTransport(c.Latency))
	default:
		opts = append(opts, caaction.WithTransport(c.Transport))
	}
	if c.Resolver != "" {
		opts = append(opts, caaction.WithResolver(c.Resolver))
	}
	if c.GCPercent > 0 {
		defer debug.SetGCPercent(debug.SetGCPercent(c.GCPercent))
	}
	sys, err := caaction.New(opts...)
	if err != nil {
		return nil, err
	}
	defer func() { _ = sys.Close() }()

	w, err := newWorkload(c)
	if err != nil {
		return nil, err
	}

	rep := &SoakReport{
		Config:       c,
		DurationSecs: cfg.Duration.Seconds(),
		Outcomes:     make(map[string]int),
	}
	var (
		next, done atomic.Int64
		stop       atomic.Bool
		mu         sync.Mutex // guards rep.Outcomes / Unexpected*
		wg         sync.WaitGroup
	)

	// The sampler runs on an untracked goroutine (wall-clock ticks, like
	// Run's peakSampler) and takes its final sample when the window closes —
	// before the in-flight drain, so the leak gates see the process under
	// load, not after it has wound down.
	samplerDone := make(chan struct{})
	samplerStop := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(samplerDone)
		samples := []metrics.Sample{
			{Name: "/sched/goroutines:goroutines"},
			{Name: "/memory/classes/heap/objects:bytes"},
		}
		take := func() {
			metrics.Read(samples)
			rep.Samples = append(rep.Samples, SoakSample{
				AtSecs:     time.Since(start).Seconds(),
				Actions:    done.Load(),
				Goroutines: int(samples[0].Value.Uint64()),
				HeapBytes:  samples[1].Value.Uint64(),
			})
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		take() // t=0 baseline
		for {
			select {
			case <-tick.C:
				take()
			case <-samplerStop:
				take() // window-close sample, still under load
				return
			}
		}
	}()

	for i := 0; i < c.Concurrency; i++ {
		wg.Add(1)
		sys.Go(func() {
			defer wg.Done()
			for !stop.Load() {
				idx := int((next.Add(1) - 1) % int64(c.Actions))
				kind := w.kindOf(idx)
				spec, progs := w.action(kind)
				h, err := sys.StartAction(context.Background(), spec, progs)
				var outcome string
				if err != nil {
					outcome = "error: " + err.Error()
				} else {
					h.WaitDone()
					outcome = classify(h)
				}
				done.Add(1)
				mu.Lock()
				rep.Outcomes[outcome]++
				if want := w.expect(kind); outcome != want {
					rep.UnexpectedCount++
					if len(rep.Unexpected) < maxSoakDiagnostics {
						rep.Unexpected = append(rep.Unexpected,
							fmt.Sprintf("action %d (%s): outcome %q, want %q", idx, kind, outcome, want))
					}
				}
				mu.Unlock()
			}
		})
	}

	time.Sleep(cfg.Duration)
	stop.Store(true)
	close(samplerStop)
	<-samplerDone
	wg.Wait()

	rep.WallSecs = time.Since(start).Seconds()
	rep.Actions = done.Load()
	if rep.WallSecs > 0 {
		rep.Throughput = float64(rep.Actions) / rep.WallSecs
	}
	rep.GoroutineGrowth, rep.HeapGrowthBytes = leakGrowth(rep.Samples)
	return rep, nil
}
