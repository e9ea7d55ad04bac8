package load

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"caaction"
)

// OpenLoopConfig parameterises an open-loop run: arrivals are driven by a
// clock, not by completions. Where the closed-loop Run backs off whenever
// all of its driver goroutines are busy — so a slow system is offered
// less — the open loop keeps offering at the configured rate regardless,
// which is what production traffic does. Combined with an admission
// budget (MaxInFlight → caaction.WithMaxInFlight) it measures the
// overload contract: past saturation, goodput must hold and the excess
// must surface as fast typed rejections instead of unbounded queueing and
// collapsing tail latency.
type OpenLoopConfig struct {
	// Config supplies the workload shape (roles, mix, seed, resolver,
	// transport, GC pacing). Actions and Concurrency are ignored:
	// the offered count is Rate×Duration and concurrency is whatever the
	// arrival process produces.
	Config
	// Rates are the offered arrival rates (actions/second); one
	// measurement point runs per rate, each on a fresh System.
	Rates []float64
	// Duration is the offering window per rate. Zero means 5s.
	Duration time.Duration
	// MaxInFlight is the System's admission budget
	// (caaction.WithMaxInFlight). Zero means 256; negative disables the
	// budget (every arrival is admitted — the collapse the budget
	// prevents, measurable for comparison).
	MaxInFlight int
}

// OpenLoopPoint is one offered-rate measurement: the offered-vs-goodput
// curve the perf gate compares, plus the admission outcome counts.
type OpenLoopPoint struct {
	// OfferedRate is the configured arrival rate, actions/second.
	OfferedRate float64 `json:"offered_rate"`
	// Offered is the number of arrivals the window produced.
	Offered int `json:"offered"`
	// Started is the number of arrivals admitted past the budget.
	Started int `json:"started"`
	// Rejected counts typed admission refusals (caaction.ErrOverloaded).
	Rejected int `json:"rejected"`
	// Errors counts arrivals that failed to start for any other reason; a
	// healthy run has none.
	Errors int `json:"errors"`
	// Completed counts admitted actions that finished with their kind's
	// expected outcome.
	Completed int `json:"completed"`
	// Goodput is Completed divided by the wall clock from first arrival
	// to last completion, actions/second.
	Goodput float64 `json:"goodput_actions_per_second"`
	// P50Ms/P99Ms summarise completed-action latency. Under overload the
	// admission budget must keep these bounded: rejected arrivals never
	// queue, so the tail reflects only admitted work.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// MaxInFlight echoes the budget the point ran under.
	MaxInFlight int `json:"max_inflight"`
}

// defaultOpenLoopInFlight is the admission budget when
// OpenLoopConfig.MaxInFlight is zero.
const defaultOpenLoopInFlight = 256

// RunOpenLoop measures one OpenLoopPoint per configured rate. Arrival i of
// rate r is released at start + i/r — when the dispatcher falls behind it
// releases the backlog as a burst, preserving the offered count — and
// every release calls StartAction immediately, concurrent with however
// many admitted actions are still running.
func RunOpenLoop(cfg OpenLoopConfig) ([]OpenLoopPoint, error) {
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("load: open loop needs at least one rate")
	}
	for _, r := range cfg.Rates {
		if r <= 0 {
			return nil, fmt.Errorf("load: open loop rate %v must be positive", r)
		}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = defaultOpenLoopInFlight
	}
	points := make([]OpenLoopPoint, 0, len(cfg.Rates))
	for _, rate := range cfg.Rates {
		p, err := runOpenLoopPoint(cfg, rate)
		if err != nil {
			return nil, fmt.Errorf("load: open loop at %v actions/s: %w", rate, err)
		}
		points = append(points, p)
	}
	return points, nil
}

func runOpenLoopPoint(cfg OpenLoopConfig, rate float64) (OpenLoopPoint, error) {
	offered := int(rate * cfg.Duration.Seconds())
	if offered < 1 {
		offered = 1
	}
	base := cfg.Config
	base.Actions = offered
	base = base.withDefaults()

	metrics := &caaction.Metrics{}
	opts := []caaction.Option{
		caaction.WithRealTime(),
		caaction.WithMetrics(metrics),
	}
	switch base.Transport {
	case "sim":
		opts = append(opts, caaction.WithSimTransport(base.Latency))
	default:
		opts = append(opts, caaction.WithTransport(base.Transport))
	}
	opts = append(opts, caaction.WithResolver(base.Resolver))
	if cfg.MaxInFlight > 0 {
		opts = append(opts, caaction.WithMaxInFlight(cfg.MaxInFlight))
	}
	if base.GCPercent > 0 {
		defer debug.SetGCPercent(debug.SetGCPercent(base.GCPercent))
	}
	sys, err := caaction.New(opts...)
	if err != nil {
		return OpenLoopPoint{}, err
	}
	defer func() { _ = sys.Close() }()

	w, err := newWorkload(base)
	if err != nil {
		return OpenLoopPoint{}, err
	}

	var rejected, startErrs, badOutcome, completed atomic.Int64
	latencies := make([]time.Duration, offered) // >0 only for completions
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < offered; i++ {
		// Open-loop pacing: arrival i is due at start+i/rate; a dispatcher
		// running late releases the backlog immediately.
		due := arrivalDue(start, i, rate)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			kind := w.kindOf(idx)
			spec, progs := w.action(kind)
			t0 := time.Now()
			h, err := sys.StartAction(context.Background(), spec, progs)
			switch {
			case errors.Is(err, caaction.ErrOverloaded):
				rejected.Add(1)
				return
			case err != nil:
				startErrs.Add(1)
				return
			}
			h.WaitDone()
			if classify(h) == w.expect(kind) {
				completed.Add(1)
				latencies[idx] = time.Since(t0)
			} else {
				badOutcome.Add(1)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	done := make([]time.Duration, 0, completed.Load())
	for _, d := range latencies {
		if d > 0 {
			done = append(done, d)
		}
	}
	pct := percentiles(done)
	return OpenLoopPoint{
		OfferedRate: rate,
		Offered:     offered,
		Started:     offered - int(rejected.Load()) - int(startErrs.Load()),
		Rejected:    int(rejected.Load()),
		Errors:      int(startErrs.Load()) + int(badOutcome.Load()),
		Completed:   int(completed.Load()),
		Goodput:     float64(completed.Load()) / wall.Seconds(),
		P50Ms:       pct.P50,
		P99Ms:       pct.P99,
		MaxInFlight: cfg.MaxInFlight,
	}, nil
}

// arrivalDue gives the release time of arrival i in an open loop offering
// rate actions/second: start + i/rate, always computed from the run origin
// so late dispatches cannot push later arrivals back — the schedule is
// absolute, not a chain of per-arrival sleeps, and therefore drift-free.
func arrivalDue(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}
