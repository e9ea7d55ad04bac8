package vclock

import (
	"fmt"
	"sync"
	"time"
)

// Virtual is a deterministic virtual clock implementing a conservative
// discrete-event scheduler over goroutines.
//
// Goroutines started with Go (or adopted with Adopt) are "tracked". Virtual
// time advances only when every tracked goroutine is blocked in a
// clock-mediated wait (Sleep, Queue.Get, Queue.GetTimeout); at that moment
// the clock jumps to the earliest scheduled event, fires all events due at
// that instant in scheduling order, and wakes any waiter whose wake condition
// now holds. If no events remain while tracked goroutines are blocked, the
// system is deadlocked: the configured deadlock handler is invoked (the
// default panics with a diagnostic).
//
// The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	mu   sync.Mutex
	cond *sync.Cond

	now     time.Duration
	running int // tracked goroutines not blocked in a clock wait
	tracked int // tracked goroutines not yet finished
	daemons int // tracked goroutines started with GoDaemon, excluded from Wait
	held    int // Hold minus Unhold calls: daemon work that Wait waits for
	seq     uint64

	timers eventHeap
	// blocked holds one record per goroutine currently inside blockLocked.
	blocked map[*waiter]struct{}
	// free holds the records of ended parks, for reuse.
	free []*waiter

	// sequential selects run-to-block scheduling: at most one tracked
	// goroutine executes at a time, and when several waiters become
	// runnable at the same instant the one started earliest (lowest gid)
	// always runs first. See NewVirtualSequential.
	sequential bool
	nextGID    uint64
	current    uint64  // gid of the goroutine holding the run token
	granted    *waiter // chosen but not yet resumed; blocks further grants

	onDeadlock func(info string)
	dead       bool
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock positioned at time zero. Goroutines
// woken at the same instant run concurrently, so executions are reproducible
// in virtual time but not in fine-grained event order.
func NewVirtual() *Virtual {
	v := &Virtual{blocked: make(map[*waiter]struct{})}
	v.cond = sync.NewCond(&v.mu)
	v.onDeadlock = func(info string) {
		panic("vclock: deadlock: " + info)
	}
	return v
}

// NewVirtualSequential returns a virtual clock with run-to-block scheduling:
// exactly one tracked goroutine executes at any moment, each running until it
// blocks in a clock-mediated wait, and among simultaneously runnable
// goroutines the one started earliest (by Go/Adopt order) always resumes
// first. Whole-system executions are then fully deterministic — every send,
// delivery and random draw happens in an identical total order on every run
// — which is what the chaos engine's seed-replay contract is built on. The
// cost is lost intra-instant parallelism, so prefer NewVirtual when only
// virtual-time reproducibility is needed.
func NewVirtualSequential() *Virtual {
	v := NewVirtual()
	v.sequential = true
	return v
}

// SetDeadlockHandler replaces the handler invoked when all tracked goroutines
// are blocked and no timed events remain. After the handler returns, the
// clock releases every blocked waiter (queue receives observe ok=false) so
// the program can unwind. The default handler panics.
func (v *Virtual) SetDeadlockHandler(fn func(info string)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.onDeadlock = fn
}

// Now reports the current virtual time.
func (v *Virtual) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Go starts fn on a new tracked goroutine. Under sequential scheduling the
// goroutine's start order (the Go call order) is its wake priority for the
// rest of its life.
func (v *Virtual) Go(fn func()) { v.spawn(fn, false) }

// GoDaemon starts fn on a tracked DAEMON goroutine: it participates in
// virtual-time advancement exactly like a Go goroutine while it runs (so
// work it performs on behalf of the simulation — e.g. a role runner
// executing an action role — keeps the clock honest), but Wait does not
// wait for it to finish (see Hold for work Wait should cover). Daemon
// goroutines are long-lived infrastructure that parks between work items
// in daemon-marked queue waits (see Queue.SetDaemon); without the
// exclusion every Wait would block forever on the idle runners.
func (v *Virtual) GoDaemon(fn func()) { v.spawn(fn, true) }

func (v *Virtual) spawn(fn func(), daemon bool) {
	v.mu.Lock()
	v.tracked++
	v.running++
	if daemon {
		v.daemons++
	}
	gid := v.nextGID
	v.nextGID++
	seq := v.sequential
	v.mu.Unlock()
	go func() {
		if seq {
			v.mu.Lock()
			v.takeTurnLocked(gid)
			v.mu.Unlock()
		}
		defer v.releaseTracked(daemon)
		fn()
	}()
}

// AfterFunc runs fn on a new tracked goroutine once d of virtual time has
// elapsed — the hook fault injectors use to crash threads or heal partitions
// at chosen virtual instants. fn runs unlocked and may use any clock
// operation.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) {
	v.Go(func() {
		v.Sleep(d)
		fn()
	})
}

// Adopt registers the calling goroutine as tracked. It must be paired with
// Release. Use it when an existing goroutine (for example a test) needs to
// call blocking clock operations directly. Under sequential scheduling the
// call blocks until the goroutine is granted its first turn.
func (v *Virtual) Adopt() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.tracked++
	v.running++
	if v.sequential {
		gid := v.nextGID
		v.nextGID++
		v.takeTurnLocked(gid)
	}
}

// Release unregisters the calling goroutine; see Adopt.
func (v *Virtual) Release() { v.release() }

func (v *Virtual) release() { v.releaseTracked(false) }

func (v *Virtual) releaseTracked(daemon bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.tracked--
	v.running--
	if daemon {
		v.daemons--
	}
	if v.running == 0 && len(v.blocked) > 0 {
		if v.sequential {
			v.scheduleNextLocked()
		} else {
			v.advanceLocked()
		}
	}
	v.cond.Broadcast()
}

// Wait blocks the calling (untracked) goroutine until all tracked
// non-daemon goroutines have finished and every Hold is released. Resident
// daemons (GoDaemon) are excluded — they park between work items and never
// "finish".
func (v *Virtual) Wait() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.tracked > v.daemons || v.held > 0 {
		v.cond.Wait()
	}
}

// Hold announces n units of work that daemon goroutines are about to run,
// as if each ran on a goroutine of its own: Wait waits for them until n
// matching Unholds, and until a goroutine Claims one it counts as running,
// so time neither advances nor deadlocks while the caller is still handing
// the units out. Under sequential scheduling only the Wait part applies.
func (v *Virtual) Hold(n int) {
	v.mu.Lock()
	v.held += n
	if !v.sequential {
		v.running += n
	}
	v.mu.Unlock()
}

// Claim tells the clock that the calling tracked goroutine has taken over
// one held unit of work, which stops counting as running on its own.
func (v *Virtual) Claim() {
	if v.sequential {
		return
	}
	v.mu.Lock()
	v.running-- // the caller itself still runs, so running stays >= 1
	v.mu.Unlock()
}

// Unhold ends one Hold.
func (v *Virtual) Unhold() {
	v.mu.Lock()
	v.held--
	if v.held == 0 {
		v.cond.Broadcast()
	}
	v.mu.Unlock()
}

// Run calls start on the calling (untracked) goroutine, then waits like
// Wait. While start runs, the caller counts as a running tracked goroutine,
// so the clock grants no turns, advances no time and declares no deadlock
// until start has started every goroutine and timer it means to. A root
// that calls Go in a loop and then Wait has no such guarantee: on more than
// one core the first goroutine can block while it is the only one tracked,
// and the clock moves on without its siblings.
func (v *Virtual) Run(start func()) {
	v.Adopt()
	func() {
		defer v.Release()
		start()
	}()
	v.Wait()
}

// Sleep blocks the calling tracked goroutine for d of virtual time.
// Non-positive d yields without advancing time.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	deadline := v.now + d
	v.scheduleLocked(deadline, nil)
	v.blockLocked(waiter{kind: waitSleep, deadline: deadline})
}

// NewQueue returns a queue whose blocking operations cooperate with this
// clock.
func (v *Virtual) NewQueue() *Queue {
	return &Queue{impl: &virtualQueue{v: v}}
}

// scheduleLocked registers fn to run at absolute virtual time at. A nil fn
// is a pure wake-up point.
func (v *Virtual) scheduleLocked(at time.Duration, fn func()) {
	v.pushEventLocked(event{at: at, fn: fn})
}

// scheduleItemLocked registers the delivery of item into q at absolute
// virtual time at. Carrying the (queue, item) pair on the event itself —
// instead of a closure capturing them — keeps the per-message schedule
// allocation-free (events live by value in the heap).
func (v *Virtual) scheduleItemLocked(at time.Duration, q *virtualQueue, item any) {
	v.pushEventLocked(event{at: at, q: q, item: item})
}

func (v *Virtual) pushEventLocked(ev event) {
	if ev.at < v.now {
		ev.at = v.now
	}
	v.seq++
	ev.seq = v.seq
	v.timers.push(ev)
}

// fire runs one popped event with v.mu held.
func (v *Virtual) fireLocked(ev event) {
	if ev.q != nil {
		if !ev.q.closed {
			ev.q.items = append(ev.q.items, ev.item)
		}
		return
	}
	if ev.fn != nil {
		ev.fn()
	}
}

// blockLocked parks the calling goroutine until its wait condition holds.
// It must be called with v.mu held by a tracked goroutine; conditions are
// evaluated under v.mu. A daemon wait is infrastructure (a demux pump, a
// background router): it does not count toward deadlock detection, so a
// system whose only parked goroutines are daemons is idle, not deadlocked.
//
// The waiter is passed by value and copied into a record only when the
// goroutine actually parks, so an already-satisfied wait (an item sitting
// in the queue, an expired deadline) costs nothing, and the record is
// reused from the free list once the park ends.
func (v *Virtual) blockLocked(w waiter) {
	if w.satisfied(v) {
		return
	}
	var wp *waiter
	if n := len(v.free); n > 0 {
		wp, v.free = v.free[n-1], v.free[:n-1]
	} else {
		wp = new(waiter)
	}
	*wp = w
	if v.sequential {
		// The caller holds the run token, so v.current is its gid.
		wp.gid = v.current
		v.blockSeqLocked(wp)
	} else {
		v.blocked[wp] = struct{}{}
		v.running--
		if v.running == 0 {
			v.advanceLocked()
		}
		for !wp.satisfied(v) {
			v.cond.Wait()
		}
		delete(v.blocked, wp)
		v.running++
	}
	*wp = waiter{} // out of blocked and granted: nothing refers to it
	v.free = append(v.free, wp)
}

// takeTurnLocked parks a goroutine that has not run yet (Go start, Adopt)
// until the scheduler grants it the run token.
func (v *Virtual) takeTurnLocked(gid uint64) {
	v.blockSeqLocked(&waiter{kind: waitAlways, gid: gid})
}

// blockSeqLocked is the sequential-mode park: the goroutine gives up the run
// token and waits until the scheduler chooses it again (its condition
// satisfied and every lower-gid runnable goroutine already served), or the
// clock is declared dead, in which case every waiter unwinds.
func (v *Virtual) blockSeqLocked(w *waiter) {
	v.blocked[w] = struct{}{}
	v.running--
	if v.running == 0 {
		v.scheduleNextLocked()
	}
	for !v.dead {
		if w.chosen {
			if w.satisfied(v) {
				break
			}
			// Spurious grant: the condition was falsified (e.g. by an
			// untracked TryGet) between the grant and our resume. Give the
			// token back and re-park.
			w.chosen = false
			if v.granted == w {
				v.granted = nil
			}
			if v.running == 0 {
				v.scheduleNextLocked()
			}
			continue
		}
		v.cond.Wait()
	}
	if v.granted == w {
		v.granted = nil
	}
	delete(v.blocked, w)
	v.running++
	v.current = w.gid
}

// scheduleNextLocked advances virtual time until at least one waiter is
// satisfied, then hands the run token to the satisfied waiter with the lowest
// gid. Called with v.mu held and v.running == 0. A no-op while a grant is
// still outstanding (the chosen goroutine has not resumed yet).
func (v *Virtual) scheduleNextLocked() {
	if v.granted != nil {
		return
	}
	v.advanceLocked()
	if v.dead {
		return // advanceLocked broadcast; every waiter unwinds
	}
	var best *waiter
	for w := range v.blocked {
		if w.satisfied(v) && (best == nil || w.gid < best.gid) {
			best = w
		}
	}
	if best != nil {
		best.chosen = true
		v.granted = best
		v.current = best.gid
		v.cond.Broadcast()
	}
}

// advanceLocked fires events until at least one blocked waiter is satisfied,
// or declares deadlock. Called with v.mu held and v.running == 0. When only
// daemon infrastructure is parked the system is idle, waiting for external
// stimulus (a new Go, an untracked Put): it is not deadlocked, and it fires
// only the events due now, so time does not run on to stale timers that no
// goroutine waits for.
func (v *Virtual) advanceLocked() {
	idle := !v.anyNonDaemonBlockedLocked() // firing events parks no one
	for {
		if v.dead || v.anySatisfiedLocked() {
			v.cond.Broadcast()
			return
		}
		if idle && (len(v.timers) == 0 || v.timers[0].at > v.now) {
			return
		}
		if len(v.timers) == 0 {
			info := fmt.Sprintf("all %d tracked goroutine(s) blocked at virtual time %v with no pending events",
				v.tracked, v.now)
			v.dead = true
			fn := v.onDeadlock
			v.mu.Unlock()
			func() {
				// Re-acquire even when the handler panics, so deferred
				// unlocks in our callers stay balanced during unwinding.
				defer v.mu.Lock()
				fn(info)
			}()
			v.cond.Broadcast()
			return
		}
		// Fire every event scheduled for the earliest instant, in
		// scheduling order, so same-time deliveries stay deterministic.
		at := v.timers[0].at
		v.now = at
		for len(v.timers) > 0 && v.timers[0].at == at {
			v.fireLocked(v.timers.pop())
		}
	}
}

func (v *Virtual) anySatisfiedLocked() bool {
	for w := range v.blocked {
		if w.satisfied(v) {
			return true
		}
	}
	return false
}

// kickLocked resumes the sequential scheduler after an untracked mutation —
// a Queue.Put or Close from a goroutine the clock does not track. In the
// daemon-idle state (every tracked goroutine parked, only daemons blocked,
// no grant outstanding) nothing else would ever call scheduleNextLocked, so
// a waiter whose predicate the mutation just satisfied would never be
// granted the run token. No-op outside sequential mode: non-sequential
// waiters self-check their predicates on the broadcast.
func (v *Virtual) kickLocked() {
	if v.sequential && v.running == 0 && len(v.blocked) > 0 {
		v.scheduleNextLocked()
	}
}

func (v *Virtual) anyNonDaemonBlockedLocked() bool {
	for w := range v.blocked {
		if !w.daemon {
			return true
		}
	}
	return false
}

// waitKind selects a waiter's wake condition. Structured conditions (a
// queue pointer and a deadline) replace the predicate closures the waits
// once carried: evaluating them allocates nothing, and constructing a
// waiter on the fast path (condition already true) costs nothing at all.
type waitKind int

const (
	// waitAlways is immediately satisfiable — a new goroutine waiting only
	// for the sequential scheduler's run token.
	waitAlways waitKind = iota
	// waitSleep wakes at a virtual-time deadline.
	waitSleep
	// waitQueue wakes when its queue has an item or closes.
	waitQueue
	// waitQueueDeadline is waitQueue bounded by a deadline.
	waitQueueDeadline
)

type waiter struct {
	kind     waitKind
	q        *virtualQueue
	deadline time.Duration
	// daemon waits are infrastructure and excluded from deadlock detection.
	daemon bool
	// Sequential-mode fields: the owning goroutine's start-order id and
	// whether the scheduler has handed it the run token.
	gid    uint64
	chosen bool
}

// satisfied evaluates the wake condition; v.mu must be held. A dead clock
// satisfies every waiter so the system can unwind.
func (w *waiter) satisfied(v *Virtual) bool {
	if v.dead {
		return true
	}
	switch w.kind {
	case waitAlways:
		return true
	case waitSleep:
		return v.now >= w.deadline
	case waitQueue:
		return w.q.pendingLocked() > 0 || w.q.closed
	default: // waitQueueDeadline
		return w.q.pendingLocked() > 0 || w.q.closed || v.now >= w.deadline
	}
}

// event is one scheduled occurrence: a timed callback (fn), a timed queue
// delivery (q, item), or — with both unset — a pure wake-up point. Events
// live by value in the heap, so scheduling one allocates nothing beyond
// amortized heap growth.
type event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	q    *virtualQueue
	item any
}

// eventHeap is a hand-rolled binary min-heap of events ordered by
// (at, seq). seq is a total tiebreak, so the pop order — and with it every
// golden trace — is exactly the schedule order container/heap produced,
// without its per-event pointer and interface boxing allocations.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release fn/item references
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// virtualQueue shares the clock's monitor so puts, timed puts and blocking
// gets all interact correctly with virtual-time advancement.
//
// Items form a head-indexed deque: pops advance head instead of re-slicing,
// and the backing array rewinds once drained, so a steady-state
// put/pop cycle never reallocates (a walking [1:] re-slice would exhaust
// capacity and force a fresh array every cap pops).
type virtualQueue struct {
	v      *Virtual
	items  []any
	head   int
	closed bool
	daemon bool
}

var _ queueImpl = (*virtualQueue)(nil)

func (q *virtualQueue) put(x any) bool {
	q.v.mu.Lock()
	defer q.v.mu.Unlock()
	if q.closed {
		return false // a closed mailbox drops new arrivals; see realQueue.put
	}
	q.items = append(q.items, x)
	q.v.cond.Broadcast()
	q.v.kickLocked()
	return true
}

func (q *virtualQueue) putAfter(d time.Duration, x any) {
	if d < 0 {
		d = 0
	}
	q.v.mu.Lock()
	defer q.v.mu.Unlock()
	q.v.scheduleItemLocked(q.v.now+d, q, x)
	q.v.kickLocked()
}

func (q *virtualQueue) pendingLocked() int { return len(q.items) - q.head }

func (q *virtualQueue) get() (any, bool) {
	q.v.mu.Lock()
	defer q.v.mu.Unlock()
	q.v.blockLocked(waiter{kind: waitQueue, q: q, daemon: q.daemon})
	return q.popLocked()
}

func (q *virtualQueue) getTimeout(d time.Duration) (any, bool) {
	q.v.mu.Lock()
	defer q.v.mu.Unlock()
	deadline := q.v.now + d
	q.v.scheduleLocked(deadline, nil)
	q.v.blockLocked(waiter{kind: waitQueueDeadline, q: q, deadline: deadline, daemon: q.daemon})
	return q.popLocked()
}

func (q *virtualQueue) setDaemon() {
	q.v.mu.Lock()
	defer q.v.mu.Unlock()
	q.daemon = true
}

func (q *virtualQueue) tryGet() (any, bool) {
	q.v.mu.Lock()
	defer q.v.mu.Unlock()
	return q.popLocked()
}

func (q *virtualQueue) popLocked() (any, bool) {
	if q.pendingLocked() == 0 {
		return nil, false
	}
	x := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	q.items, q.head = compactQueue(q.items, q.head)
	return x, true
}

// compactQueue bounds a head-indexed deque's dead prefix: a drained queue
// rewinds onto its backing array for free, and a queue that never fully
// drains (persistent backlog) is compacted once the dead prefix dominates,
// so memory stays O(pending) instead of growing with total throughput.
// Both operations are allocation-free, preserving the zero-alloc
// steady-state send contract.
func compactQueue(items []any, head int) ([]any, int) {
	const threshold = 64
	switch {
	case head == len(items):
		return items[:0], 0
	case head >= threshold && head*2 >= len(items):
		n := copy(items, items[head:])
		for i := n; i < len(items); i++ {
			items[i] = nil // release references past the new tail
		}
		return items[:n], 0
	}
	return items, head
}

func (q *virtualQueue) reset() {
	q.v.mu.Lock()
	defer q.v.mu.Unlock()
	for i := range q.items {
		q.items[i] = nil
	}
	q.items = q.items[:0]
	q.head = 0
	q.closed = false
	q.daemon = false
}

func (q *virtualQueue) closeQ() {
	q.v.mu.Lock()
	defer q.v.mu.Unlock()
	q.closed = true
	q.v.cond.Broadcast()
	q.v.kickLocked()
}

func (q *virtualQueue) length() int {
	q.v.mu.Lock()
	defer q.v.mu.Unlock()
	return q.pendingLocked()
}
