package caaction

import (
	"context"
	"errors"
	"sync"

	"caaction/internal/core"
	"caaction/internal/transport"
	"caaction/internal/vclock"
)

// runnerClock is the Clock extension role runners need: goroutines that
// take part in time advancement but that Wait ignores while they sit idle,
// and holds that make the clock treat each handed-out role as a goroutine
// of its own. Both built-in clocks implement it.
type runnerClock interface {
	Clock
	GoDaemon(fn func())
	Hold(n int)
	Claim()
	Unhold()
}

// trackedClock adapts a custom Clock without daemon support: every role
// gets a fresh tracked goroutine, which Wait covers by itself.
type trackedClock struct{ Clock }

func (c trackedClock) GoDaemon(fn func()) { c.Go(fn) }
func (trackedClock) Hold(int)             {}
func (trackedClock) Claim()               {}
func (trackedClock) Unhold()              {}

// roleRunners is the elastic set of goroutines StartAction runs roles on.
// A role goes to the most recently parked runner, whose stack is the
// warmest; when none is idle a new runner is spawned, so StartAction never
// waits for capacity and a role body that starts and waits on a nested
// action cannot starve the set. Nothing is spawned before the first role.
//
// After its role a runner parks in its mailbox again. The idle runners are
// bounded by the load, with no size option: at most as many as the peak
// number of roles running since the System last had no action in flight,
// the coldest retiring first. A role counts as running until its whole
// action has finished, so back-to-back actions, nested ones included, reuse
// one action's worth of runners, and a lone action after a burst trims the
// idle set back to its own size.
type roleRunners struct {
	clock runnerClock
	// keep is false for custom clocks: their runners are tracked
	// goroutines, which Wait would block on if they parked.
	keep bool

	mu sync.Mutex
	// idle holds the mailboxes of the parked runners, most recently
	// parked last; a runner is identified by its mailbox.
	idle    []*vclock.Queue
	running int // roles of the actions in flight
	peak    int // most roles running since running was last 0
	spawned int // runners started so far
	closed  bool
	// exiting counts the runners told to exit while idle (retired or
	// closed); on the real clock Close waits for them, so a closed System
	// leaves no idle runner behind.
	exiting sync.WaitGroup
}

func (rs *roleRunners) init(clock Clock) {
	if rc, ok := clock.(runnerClock); ok {
		rs.clock, rs.keep = rc, true
	} else {
		rs.clock = trackedClock{clock}
	}
}

// start hands one action's role tasks to runners. The holds are taken
// before any hand-off, so a System.Wait that follows StartAction covers
// every role, and under virtual time no role can block the clock before
// its siblings are handed out — even when StartAction is called from a
// goroutine the clock does not track.
func (rs *roleRunners) start(ts []*roleTask) {
	var warmArr [8]*vclock.Queue
	rs.mu.Lock()
	if rs.running == 0 {
		rs.peak = 0
	}
	rs.running += len(ts)
	rs.peak = max(rs.peak, rs.running)
	n := len(rs.idle) - min(len(ts), len(rs.idle))
	warm := append(warmArr[:0], rs.idle[n:]...)
	clear(rs.idle[n:])
	rs.idle = rs.idle[:n]
	rs.spawned += len(ts) - len(warm)
	rs.mu.Unlock()

	rs.clock.Hold(len(ts))
	for i, t := range ts {
		if i < len(warm) {
			warm[len(warm)-1-i].Put(t)
			continue
		}
		mailbox := rs.clock.NewQueue()
		// A parked runner is infrastructure: under the virtual clock it
		// counts as idle, not deadlocked.
		mailbox.SetDaemon()
		rs.clock.GoDaemon(func() { rs.loop(mailbox, t) })
	}
}

// loop runs roles until the runner retires or the set closes.
func (rs *roleRunners) loop(mailbox *vclock.Queue, t *roleTask) {
	for {
		rs.clock.Claim()
		err := t.perform()
		// Park before the outcome is recorded: whoever waits on the action
		// and starts the next one then finds this runner idle. A task put
		// meanwhile waits in the mailbox until the cleanup below is done.
		parked := rs.park(mailbox)
		t.complete(err)
		rs.clock.Unhold()
		if !parked {
			return
		}
		x, ok := mailbox.Get()
		if !ok {
			rs.exiting.Done() // retired, or closed while idle
			return
		}
		t = x.(*roleTask)
	}
}

// park puts a runner on the idle list, retiring the coldest runners beyond
// the bound. It reports false when the runner should exit instead.
func (rs *roleRunners) park(mailbox *vclock.Queue) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.keep || rs.closed {
		return false
	}
	// The runner's own action is still running, so peak >= 1.
	for len(rs.idle) >= rs.peak {
		rs.exiting.Add(1)
		rs.idle[0].Close()
		rs.idle[0] = nil
		rs.idle = rs.idle[1:]
	}
	rs.idle = append(rs.idle, mailbox)
	return true
}

// actionDone drops a finished action's roles from the running count.
func (rs *roleRunners) actionDone(roles int) {
	rs.mu.Lock()
	rs.running -= roles
	rs.mu.Unlock()
}

// close ends the idle runners; busy ones exit after their role. On the
// real clock it returns once the idle ones are gone. A virtual clock may
// need the caller's turn to let them run, so there it does not wait.
func (rs *roleRunners) close() {
	rs.mu.Lock()
	rs.closed = true
	idle := rs.idle
	rs.idle = nil
	rs.exiting.Add(len(idle))
	rs.mu.Unlock()
	for _, mailbox := range idle {
		mailbox.Close()
	}
	if vclock.IsReal(rs.clock) {
		rs.exiting.Wait()
	}
}

// roleTask carries one role execution to a runner; recycled through
// roleTaskPool so sustained churn allocates no task boxes.
type roleTask struct {
	h         *ActionHandle
	ctx       context.Context
	spec      *Spec
	role      string
	roleIdx   int
	prog      RoleProgram
	th        *core.Thread
	ep        transport.Endpoint
	recycleEP bool
}

var roleTaskPool = sync.Pool{New: func() any { return new(roleTask) }}

// perform runs the role's body and protocol to its outcome.
func (t *roleTask) perform() error {
	err := t.th.Perform(t.spec, t.role, t.prog)
	if t.h.cancelled.Load() && errors.Is(err, ErrThreadStopped) {
		err = &cancelledError{spec: t.spec.Name, role: t.role, cause: context.Cause(t.ctx)}
	}
	return err
}

// complete records the outcome, then closes and recycles the thread, the
// virtual endpoint and the task box itself.
//
// The outcome is recorded (h.finish) BEFORE the thread closes its mux
// endpoint, so the handle is complete by the time the instance leaves the
// demultiplexer.
func (t *roleTask) complete(err error) {
	t.h.finish(t.roleIdx, err)
	_ = t.th.Close() // GC: deregister the instance from the mux
	t.th.Recycle()
	if t.recycleEP {
		transport.RecycleEndpoint(t.ep)
	}
	*t = roleTask{}
	roleTaskPool.Put(t)
}
