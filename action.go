package caaction

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caaction/internal/core"
	"caaction/internal/transport"
	"caaction/internal/vclock"
)

// ErrSystemClosed reports an operation on a System after Close.
var ErrSystemClosed = errors.New("caaction: system closed")

// ErrDraining reports an operation refused because the System has begun a
// graceful shutdown: Drain (or Close) was called, new actions and threads
// are no longer admitted, and in-flight actions are running to completion.
// Callers distinguishing "retry elsewhere" from "gone for good" should
// check ErrDraining before ErrSystemClosed.
var ErrDraining = errors.New("caaction: system draining")

// ActionHandle tracks one concurrent CA-action instance started with
// System.StartAction: which roles are still running, and each role's
// outcome once it finishes.
type ActionHandle struct {
	id    string
	roles []string
	// rolesArr and outcomesArr back roles and outcomes for actions of up to
	// len(rolesArr) local roles, so the common small action keeps its
	// bookkeeping inside the handle's one allocation; larger actions fall
	// back to slices.
	rolesArr    [4]string
	outcomesArr [4]roleOutcome

	done      chan struct{} // closed when every role has finished
	cancelled atomic.Bool
	clock     Clock

	mu      sync.Mutex
	pending int
	// outcomes is indexed like roles: one slot per role, filled as roles
	// finish. A slice (instead of the map the handle once carried) needs no
	// allocation of its own for small actions (outcomesArr); Results still
	// materialises the map view on demand.
	outcomes []roleOutcome
	// doneQ is the clock-integrated completion signal for Wait under
	// virtual time; real-time systems wait on the done channel instead, so
	// the queue (and its condition variable) is only allocated when a
	// virtual-time system starts the action. Created under mu; finish reads
	// it under mu before closing it.
	doneQ *vclock.Queue
	// sys and tenant route the handle back into the System's in-flight
	// accounting (Drain and the admission budgets): the last role to finish
	// releases exactly the budget beginAction charged.
	sys    *System
	tenant string
	// mux records the action's endpoints on the System's Mux, so each
	// message resolves its local peer there, and inst is the record its role
	// threads share the instance's identifiers through.
	mux  transport.MuxInstance
	inst core.Instance
}

type roleOutcome struct {
	err      error
	finished bool
}

// ID returns the instance tag assigned to this action — the prefix of every
// action identifier the instance puts on the wire.
func (h *ActionHandle) ID() string { return h.id }

// Roles returns the action's role names in spec order.
func (h *ActionHandle) Roles() []string { return append([]string(nil), h.roles...) }

// Done reports whether every role has finished.
func (h *ActionHandle) Done() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pending == 0
}

// Wait blocks until every role of the action has finished and returns the
// per-role outcomes (nil for success, a *SignalledError for an exceptional
// exit, or another error). Callers that do not need the map view should
// prefer WaitDone plus Each, which allocate nothing.
//
// Wait is clock-integrated: under virtual time it must be called from a
// goroutine the clock tracks (one started with System.Go) — for example a
// load driver that starts actions and waits for them. Untracked goroutines
// (a test's main goroutine) should instead call System.Wait and then read
// Results.
func (h *ActionHandle) Wait() map[string]error {
	h.WaitDone()
	return h.Results()
}

// WaitDone blocks until every role of the action has finished, with the
// same clock-integration contract as Wait, allocating nothing on real-time
// systems. Inspect outcomes afterwards with Each, Err or Results.
func (h *ActionHandle) WaitDone() {
	if h.clock == nil {
		// Real-time system: a plain channel wait needs no clock
		// integration, and skipping the queue saves its allocation on
		// every action of a high-churn workload.
		<-h.done
		return
	}
	for {
		h.mu.Lock()
		finished := h.pending == 0
		q := h.doneQ
		if !finished && q == nil {
			// Lazily created on the first Wait: actions nobody waits on
			// never pay for the queue. finish reads it under mu, so the
			// close cannot be missed.
			q = h.clock.NewQueue()
			h.doneQ = q
		}
		h.mu.Unlock()
		if finished {
			return
		}
		// The queue closes when the last role finishes, so this wakes
		// exactly then; intermediate completions put nothing.
		if _, ok := q.Get(); !ok {
			return
		}
	}
}

// Results returns a snapshot of the per-role outcomes recorded so far; after
// Done (or Wait) it is the action's complete outcome map.
func (h *ActionHandle) Results() map[string]error {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]error, len(h.roles))
	for i, o := range h.outcomes {
		if o.finished {
			out[h.roles[i]] = o.err
		}
	}
	return out
}

// Each calls fn with every finished role's outcome, in spec role order,
// without allocating. fn runs under the handle's lock and must not call
// back into the handle.
func (h *ActionHandle) Each(fn func(role string, err error)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, o := range h.outcomes {
		if o.finished {
			fn(h.roles[i], o.err)
		}
	}
}

// Err joins the non-nil role outcomes in role order (nil when every role
// succeeded). Call after Done or Wait.
func (h *ActionHandle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var errs []error
	for i, o := range h.outcomes {
		if o.finished && o.err != nil {
			errs = append(errs, fmt.Errorf("role %s: %w", h.roles[i], o.err))
		}
	}
	return errors.Join(errs...)
}

func (h *ActionHandle) finish(idx int, err error) {
	h.mu.Lock()
	h.outcomes[idx] = roleOutcome{err: err, finished: true}
	h.pending--
	last := h.pending == 0
	q := h.doneQ
	h.mu.Unlock()
	if last {
		// Before the waiters wake: an action a waiter starts next must
		// find this one's roles no longer running.
		h.sys.runners.actionDone(len(h.roles))
		close(h.done)
		if q != nil {
			q.Close()
		}
		h.sys.endAction(h.tenant)
	}
}

// StartOption tunes one StartAction/StartTagged call; see WithTenant.
type StartOption func(*startConfig)

type startConfig struct {
	tenant string
}

// WithTenant attributes the started action to the named tenant for
// per-tenant admission budgeting (WithTenantBudget). Actions started
// without WithTenant share the "" tenant. The tenant has no effect on the
// wire or on resolution — it exists purely so admission control can refuse
// a noisy workload without starving the others.
func WithTenant(name string) StartOption {
	return func(c *startConfig) { c.tenant = name }
}

// StartAction runs one CA-action instance concurrently with any number of
// others on the same System: every role of spec runs on its own goroutine
// (a warm role runner when one is idle, a fresh one otherwise; System.Wait
// covers both, and virtual time keeps working) and gets its own
// virtual endpoint demultiplexed from the shared per-thread transport
// endpoints, and the instance is garbage-collected from the demultiplexer
// when its last role finishes. progs must supply a RoleProgram with a Body
// for every role of the spec.
//
// Action identifiers of the instance are tagged with a fresh instance tag
// (ActionHandle.ID), which is what keeps concurrent instances of the same
// spec — same action names, same thread bindings — separate on the wire.
// Threads made with System.Thread are roles of one more instance on the
// same demultiplexer, so they share thread addresses with StartAction
// instances freely.
//
// Cancelling ctx closes the instance's endpoints: every role unwinds
// through the cooperative interrupt path and reports an error matching both
// ErrThreadStopped and the context cause. A ctx deadline additionally
// propagates into the runtime's signal and resolution timing: protocol
// waits are clamped to the deadline, so a doomed action aborts (releasing
// its admission budget) with an outcome matching ErrDeadline and
// context.DeadlineExceeded instead of blocking past it.
//
// Under admission control (WithMaxInFlight, WithTenantBudget) a start over
// budget fast-rejects with a typed *OverloadedError matching ErrOverloaded.
func (s *System) StartAction(ctx context.Context, spec *Spec, progs map[string]RoleProgram, opts ...StartOption) (*ActionHandle, error) {
	// The tag "a<n>" is formatted in place; startAction builds the
	// instance's one string around it.
	var buf [24]byte
	return s.startAction(ctx, strconv.AppendInt(append(buf[:0], 'a'), s.actionSeq.Add(1), 10), spec, progs, opts)
}

// StartTagged is StartAction with a caller-assigned instance tag. Tags
// exist for multi-process deployments (WithCluster): every node hosting
// roles of one logical action instance must put the SAME tag on the wire,
// so a coordinator — the cluster workload driver — picks the tag and hands
// it to each node, which starts just its locally-placed roles. The tag
// must be unique among instances whose lifetimes overlap, and must neither
// contain the id metacharacters '!', '/' or '#' nor be "t", the tag of
// System.Thread's instance. On a cluster node, progs
// need only cover the locally-placed roles (remote entries are ignored);
// on a non-cluster system StartTagged behaves exactly like StartAction.
func (s *System) StartTagged(ctx context.Context, tag string, spec *Spec, progs map[string]RoleProgram, opts ...StartOption) (*ActionHandle, error) {
	if tag == "" {
		return nil, fmt.Errorf("caaction: StartTagged: empty instance tag")
	}
	if strings.ContainsAny(tag, "!/#") || tag == threadTag {
		return nil, fmt.Errorf("caaction: StartTagged: tag %q contains an id metacharacter ('!', '/' or '#') or is System.Thread's", tag)
	}
	return s.startAction(ctx, []byte(tag), spec, progs, opts)
}

// startAction starts the instance tagged tag.
func (s *System) startAction(ctx context.Context, tag []byte, spec *Spec, progs map[string]RoleProgram, opts []StartOption) (*ActionHandle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.closed.Load() {
		return nil, ErrSystemClosed
	}
	if spec == nil {
		return nil, fmt.Errorf("caaction: StartAction: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	for role := range progs {
		if _, ok := spec.ThreadFor(role); !ok {
			return nil, fmt.Errorf("%w: %q in %s", ErrUnknownRole, role, spec.Name)
		}
	}
	// On a cluster node only the locally-placed roles run here; the other
	// nodes of the cluster start the rest under the same tag. Everywhere
	// else every role is local.
	var localArr [4]Role
	local := localArr[:0]
	for _, r := range spec.Roles {
		if s.clusterLocal != nil && !s.clusterLocal(r.Thread) {
			continue
		}
		local = append(local, r)
	}
	if len(local) == 0 {
		return nil, fmt.Errorf("caaction: StartAction %s: no roles are placed on this node", spec.Name)
	}
	for _, r := range local {
		if p, ok := progs[r.Name]; !ok || p.Body == nil {
			return nil, fmt.Errorf("%w: %s/%s", ErrBodyRequired, spec.Name, r.Name)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("caaction: %s not started: %w", spec.Name, context.Cause(ctx))
	}
	var tenant string
	if len(opts) > 0 {
		tenant = startTenant(opts)
	}
	// A ctx deadline propagates into the runtime as an absolute clock time:
	// each role thread clamps its protocol and Context waits to it, so a
	// doomed action unwinds (releasing its budget) instead of blocking past
	// the point its caller stopped caring. Computed once, before admission,
	// so every role shares one deadline.
	var coreDeadline time.Duration
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return nil, fmt.Errorf("caaction: %s not started: %w", spec.Name, context.DeadlineExceeded)
		}
		coreDeadline = s.clock.Now() + remaining
	}
	if err := s.beginAction(tenant); err != nil {
		return nil, err
	}

	h := &ActionHandle{
		done:    make(chan struct{}),
		clock:   s.waitClock(),
		pending: len(local),
		sys:     s,
		tenant:  tenant,
	}
	if len(local) <= len(h.rolesArr) {
		h.outcomes = h.outcomesArr[:len(local)]
		h.roles = h.rolesArr[:0]
	} else {
		h.outcomes = make([]roleOutcome, len(local))
		h.roles = make([]string, 0, len(local))
	}
	h.id = h.inst.InitFor(tag, spec)
	mux := s.muxNet()
	type roleThread struct {
		role string
		th   *core.Thread
		ep   transport.Endpoint
	}
	var rtsArr [4]roleThread
	rts := rtsArr[:0]
	for _, r := range local {
		ep, err := mux.OpenIn(&h.mux, h.id, r.Thread)
		if err != nil {
			for _, x := range rts {
				_ = x.ep.Close()
			}
			s.endAction(tenant)
			if s.draining.Load() {
				// The mux (or transport) closed under us because shutdown
				// began after admission; report the typed refusal rather
				// than a bare transport error.
				return nil, fmt.Errorf("caaction: StartAction %s: %w", spec.Name, ErrDraining)
			}
			return nil, fmt.Errorf("caaction: StartAction %s: %w", spec.Name, err)
		}
		th := s.rt.NewThreadOn(r.Thread, ep, &h.inst)
		if coreDeadline > 0 {
			th.SetDeadline(coreDeadline)
		}
		rts = append(rts, roleThread{r.Name, th, ep})
		h.roles = append(h.roles, r.Name)
	}
	// A cancellation watcher retains endpoint references past the roles'
	// lifetimes, so virtual endpoints are recycled only for unwatched
	// actions (a recycled endpoint must have no other referent).
	watch := ctx.Done() != nil
	var tsArr [8]*roleTask
	ts := tsArr[:0]
	for i, x := range rts {
		t := roleTaskPool.Get().(*roleTask)
		*t = roleTask{h: h, ctx: ctx, spec: spec, role: x.role, roleIdx: i,
			prog: progs[x.role], th: x.th, ep: x.ep, recycleEP: !watch}
		ts = append(ts, t)
	}
	var eps []transport.Endpoint
	if watch {
		// The watcher's own copy of the endpoints, so rts stays on the
		// stack for unwatched actions.
		eps = make([]transport.Endpoint, len(rts))
		for i, x := range rts {
			eps[i] = x.ep
		}
	}
	s.runners.start(ts)
	if watch {
		// The watcher is untracked: it blocks on real channels, never on the
		// clock, and exits as soon as the action finishes.
		go func() {
			select {
			case <-ctx.Done():
				h.cancelled.Store(true)
				for _, ep := range eps {
					_ = ep.Close()
				}
			case <-h.done:
			}
		}()
	}
	return h, nil
}

// startTenant applies a start's options. It is called only when there are
// options: the config it fills escapes into them.
func startTenant(opts []StartOption) string {
	var sc startConfig
	for _, opt := range opts {
		opt(&sc)
	}
	return sc.tenant
}

// muxNet lazily creates the demultiplexer the System's concurrent actions
// share.
func (s *System) muxNet() *transport.Mux {
	s.muxOnce.Do(func() {
		s.mux = transport.NewMuxOpts(s.clock, s.net, transport.MuxOptions{NoInline: s.noInline})
	})
	return s.mux
}
