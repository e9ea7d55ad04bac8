package vclock

import (
	"sync"
	"time"
)

// Real is a Clock backed by the operating-system clock. It exists so the
// same runtime code can drive both deterministic simulations (Virtual) and
// genuinely distributed deployments (for example over the TCP transport).
//
// The zero value is not usable; construct with NewReal.
type Real struct {
	start time.Time
	wg    sync.WaitGroup
}

var _ Clock = (*Real)(nil)

// NewReal returns a real-time clock whose Now starts at zero.
func NewReal() *Real {
	return &Real{start: time.Now()}
}

// Now reports the elapsed wall-clock time since the clock was created.
func (r *Real) Now() time.Duration { return time.Since(r.start) }

// RealTime marks this clock as wall-clock-backed. Components that keep a
// deterministic slow path for virtual clocks (e.g. the sim transport's
// lock-free send fast path) detect it by this marker method.
func (r *Real) RealTime() {}

// Sleep pauses the calling goroutine for d of wall-clock time.
func (r *Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Go runs fn on a new goroutine tracked by Wait.
func (r *Real) Go(fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

// Wait blocks until every goroutine started with Go has returned.
func (r *Real) Wait() { r.wg.Wait() }

// GoDaemon runs fn on a goroutine excluded from Wait — resident
// infrastructure such as idle role runners, which park between work items
// and never "finish". On the real clock that is simply an untracked
// goroutine.
func (r *Real) GoDaemon(fn func()) { go fn() }

// Hold makes Wait wait for n units of work daemon goroutines are about to
// run, until n matching Unholds.
func (r *Real) Hold(n int) { r.wg.Add(n) }

// Claim is a no-op: the real clock has no notion of running goroutines.
func (r *Real) Claim() {}

// Unhold ends one Hold.
func (r *Real) Unhold() { r.wg.Done() }

// NewQueue returns a queue backed by a mutex/condition pair and real timers.
func (r *Real) NewQueue() *Queue {
	q := &realQueue{}
	q.cond = sync.NewCond(&q.mu)
	return &Queue{impl: q}
}

// realQueue's items form a head-indexed deque; see virtualQueue for why
// (steady-state put/pop cycles must not reallocate the backing array).
type realQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []any
	head   int
	closed bool
}

var _ queueImpl = (*realQueue)(nil)

func (q *realQueue) put(x any) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		// A closed mailbox drops new arrivals: receivers can never observe
		// them (they see ok=false once the pre-close backlog drains), so
		// keeping them would only leak — e.g. a lingering TCP read loop
		// feeding a torn-down endpoint's queue forever.
		return false
	}
	q.items = append(q.items, x)
	q.cond.Broadcast()
	return true
}

func (q *realQueue) putAfter(d time.Duration, x any) {
	if d <= 0 {
		q.put(x)
		return
	}
	time.AfterFunc(d, func() { q.put(x) })
}

func (q *realQueue) pendingLocked() int { return len(q.items) - q.head }

func (q *realQueue) get() (any, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.pendingLocked() == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.popLocked()
}

func (q *realQueue) getTimeout(d time.Duration) (any, bool) {
	deadline := time.Now().Add(d)
	// sync.Cond has no timed wait; poke the condition when the deadline
	// passes so the loop below re-checks.
	timer := time.AfterFunc(d, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer timer.Stop()

	q.mu.Lock()
	defer q.mu.Unlock()
	for q.pendingLocked() == 0 && !q.closed && time.Now().Before(deadline) {
		q.cond.Wait()
	}
	return q.popLocked()
}

func (q *realQueue) tryGet() (any, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

func (q *realQueue) popLocked() (any, bool) {
	if q.pendingLocked() == 0 {
		return nil, false
	}
	x := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	q.items, q.head = compactQueue(q.items, q.head)
	return x, true
}

func (q *realQueue) reset() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range q.items {
		q.items[i] = nil
	}
	q.items = q.items[:0]
	q.head = 0
	q.closed = false
}

func (q *realQueue) closeQ() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

func (q *realQueue) length() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pendingLocked()
}

// setDaemon is meaningful only for the virtual clock's deadlock detection.
func (q *realQueue) setDaemon() {}
