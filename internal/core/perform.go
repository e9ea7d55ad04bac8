package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/resolve"
	"caaction/internal/signal"
	"caaction/internal/transport"
)

// errSignalTimeout marks an expired wait for toBeSignalled votes.
var errSignalTimeout = errors.New("core: signalling vote timed out")

// ErrDeadline reports that the thread's action deadline (SetDeadline,
// propagated from the caller's context) expired mid-protocol: the doomed
// action stops consuming runtime budget, undoes its local effects
// best-effort and unwinds. It matches context.DeadlineExceeded under
// errors.Is so callers can treat propagated deadlines uniformly.
var ErrDeadline = fmt.Errorf("core: action deadline exceeded: %w", context.DeadlineExceeded)

// Perform executes a top-level CA action: this thread plays the given role
// of spec. It returns nil when the action exits successfully, or a
// *SignalledError carrying the exception this role signalled (an application
// ε, except.Undo, or except.Failure).
func (th *Thread) Perform(spec *Spec, role string, prog RoleProgram) error {
	err := th.perform(nil, spec, role, prog)
	if ae, ok := err.(*abortError); ok {
		// Unreachable for top-level actions (there is no enclosing action
		// to abort them); report rather than leak internals.
		return fmt.Errorf("core: internal: top-level abort to %q", ae.target)
	}
	return err
}

// Participants opens a thread for every role of spec on mux, all of them
// participants of the one action instance tag, and returns one participant
// per role, in role order, for a simulation start (simenv.Start): each
// calls run with its role's thread (one Perform of the role, or several in
// a loop), closes the thread, which releases its endpoint and with the
// address's last one the mux pump, and records run's result in the
// returned map under the role's thread id. Call it from the start's setup,
// so every endpoint is bound before any participant runs, and read the map
// once every participant has returned.
func (rt *Runtime) Participants(mux *transport.Mux, tag string, spec *Spec, run func(*Thread, Role) error) ([]func(), map[string]error, error) {
	inst := NewInstance(protocol.TagInstance(tag, ""))
	threads := make([]*Thread, len(spec.Roles))
	for i, r := range spec.Roles {
		ep, err := mux.Open(tag, r.Thread)
		if err != nil {
			for _, th := range threads[:i] {
				_ = th.Close()
			}
			return nil, nil, fmt.Errorf("core: thread %q: %w", r.Thread, err)
		}
		threads[i] = rt.NewThreadOn(r.Thread, ep, inst)
	}
	var mu sync.Mutex
	results := make(map[string]error, len(spec.Roles))
	participants := make([]func(), len(spec.Roles))
	for i, r := range spec.Roles {
		th := threads[i]
		participants[i] = func() {
			err := run(th, r)
			_ = th.Close()
			mu.Lock()
			results[r.Thread] = err
			mu.Unlock()
		}
	}
	return participants, results, nil
}

// perform runs one action frame to completion under the given parent frame
// (nil for a top-level action). It returns nil, a *SignalledError, an
// *abortError (for Enter to continue a cascade), or a configuration error.
func (th *Thread) perform(parent *frame, spec *Spec, role string, prog RoleProgram) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if prog.Body == nil {
		return fmt.Errorf("%w: %s/%s", ErrBodyRequired, spec.Name, role)
	}
	bound, ok := spec.ThreadFor(role)
	if !ok {
		return fmt.Errorf("%w: %q in %s", ErrUnknownRole, role, spec.Name)
	}
	if bound != th.id {
		return fmt.Errorf("%w: role %q of %s is bound to %q, not %q",
			ErrNotYourRole, role, spec.Name, bound, th.id)
	}

	f := th.pushFrame(parent, spec, role, prog)
	id := f.id
	ctx := &Context{th: th, f: f, id: f.id, gen: f.gen}
	th.rt.counters.entries.Add(1)
	if th.logOn {
		th.logf("enter", "%s as %s", id, role)
	}

	err := th.entryBarrier(f)
	if err == nil && !f.hasPendingWork() {
		err = th.runBody(ctx, prog.Body)
	}
	return th.conclude(ctx, err)
}

func (f *frame) hasPendingWork() bool {
	return f.informed || f.inst != nil || f.hasDecided
}

// runBody executes the role body, mapping foreign errors onto the model: an
// error that is not a control error is an undetected fault, raised as the
// action's universal exception (§3.2: undefined exceptions resolve to the
// universal exception).
func (th *Thread) runBody(ctx *Context, body Body) error {
	err := body(ctx)
	return th.mapUserErr(ctx, err)
}

func (th *Thread) mapUserErr(ctx *Context, err error) error {
	if err == nil {
		return nil
	}
	if pe, ok := asError[*pendingError](err); ok {
		return pe
	}
	if errors.Is(err, ErrThreadStopped) {
		// The endpoint was closed under the body (thread shutdown or an
		// external cancellation): surface the stop instead of raising.
		return err
	}
	if errors.Is(err, ErrDeadline) {
		// The propagated action deadline expired under the body: the action
		// is doomed, so unwind instead of raising a fresh exception that
		// would start a resolution round it has no budget left to run.
		return err
	}
	if ctx.f.hasPendingWork() {
		// The body swallowed a control error but state tells the truth.
		return &ctx.f.interruptErr
	}
	return ctx.Raise(ctx.f.spec.Graph.Root(), err.Error())
}

// conclude drives the frame's state machine after the body (or entry
// barrier) finished: resolution rounds, handler dispatch, abort cascades and
// the synchronous exit protocol.
func (th *Thread) conclude(ctx *Context, err error) error {
	f := ctx.f
	for {
		if pe, ok := err.(*pendingError); ok && pe.kind == kindAbort {
			target := pe.target
			eab := th.runAbortion(ctx)
			th.rt.counters.aborted.Add(1)
			th.recordOutcome(f, "aborted")
			// Log before popFrame: the pop recycles the frame, so f.id must
			// not be read afterwards.
			if th.logOn {
				th.logf("aborted", "%s (target %s, Eab=%q)", f.id, target, eab)
			}
			th.popFrame(f)
			// The enclosing frame, now on top, consumes the error in Enter.
			// A top-level action has none; Perform reports that case.
			var ae *abortError
			if p := th.top(); p != nil {
				ae = &p.childAbort
			} else {
				ae = new(abortError)
			}
			*ae = abortError{target: target, eab: eab}
			return ae
		}
		if err != nil {
			if _, ok := err.(*pendingError); !ok {
				if errors.Is(err, ErrDeadline) {
					// Deadline-doomed action: undo local effects best-effort
					// and unwind. Peers are not messaged — they unwind on the
					// same propagated deadline (or their signal timeout), and
					// sending into an already-missed exchange would only
					// start protocol work the action has no budget for.
					_ = f.tx.Undo()
					th.rt.counters.deadlined.Add(1)
					th.recordOutcome(f, "deadline")
					if th.logOn {
						th.logf("deadline", "%s: abandoned at propagated deadline", f.id)
					}
				} else if !errors.Is(err, ErrThreadStopped) {
					// A crash-stop (ErrThreadStopped) records nothing: its
					// absence from the WAL is what marks the action in
					// flight for replay. Other errors conclude the action.
					th.recordOutcome(f, "error")
				}
				// Configuration errors surface immediately.
				th.popFrame(f)
				return err
			}
		}

		// Resolution in progress?
		if f.inst != nil && !f.hasDecided {
			if werr := th.awaitDecision(f); werr != nil {
				err = werr
				continue
			}
		}
		if f.hasDecided {
			out := f.decided
			f.decided, f.hasDecided = resolve.Outcome{}, false
			resolve.Release(f.inst)
			f.inst = nil
			f.informed = false
			f.round++
			th.rt.counters.rounds.Add(1)
			if th.logOn {
				th.logf("resolved", "%s round %d: %s covering %d", f.id, f.round-1,
					out.Resolved, len(out.Raised))
			}
			v := th.drainFuture(f)
			if v.abortTarget != "" {
				err = f.abort(v.abortTarget)
				continue
			}
			err = th.dispatchHandler(ctx, out)
			continue
		}

		// Nothing pending: attempt the synchronous exit.
		dec, decided, werr := th.exitAction(f)
		if werr != nil {
			err = werr
			continue
		}
		if !decided {
			// Exit abandoned: a peer raised; resolution is pending.
			err = nil
			continue
		}
		return th.finalize(f, dec)
	}
}

// dispatchHandler invokes the role's handler for the resolved exception, or
// applies the termination model's propagation rule when no handler exists:
// signal the exception itself when the interface declares it, otherwise
// abort the action with undo (a raised universal exception "usually leads to
// the signalling of an undo or failure exception").
func (th *Thread) dispatchHandler(ctx *Context, out resolve.Outcome) error {
	f := ctx.f
	if h, ok := f.prog.Handlers[out.Resolved]; ok && h != nil {
		th.rt.counters.handlerRuns.Add(1)
		return th.mapUserErr(ctx, h(ctx, out.Resolved, out.Raised))
	}
	if out.Resolved != f.spec.Graph.Root() && f.spec.CanSignal(out.Resolved) {
		f.epsilon = out.Resolved
	} else {
		f.epsilon = except.Undo
	}
	return nil
}

// entryBarrier announces this thread at the action's entry point and waits
// until every participant has arrived. Exceptions raised by fast peers
// before the barrier completes leave the frame informed; the body is then
// skipped entirely.
func (th *Thread) entryBarrier(f *frame) error {
	if th.rt.rec != nil {
		// Write-ahead: the join is durable before any peer can learn of it.
		th.rt.rec.RecordJoin(th.id, f.id, f.role)
	}
	enter := protocol.Message{Kind: protocol.KindEnter, Action: f.id, From: th.id, Role: f.role}
	for _, p := range f.peers {
		if p != th.id {
			th.sendMsg(p, &enter)
		}
	}
	return th.pump(f, untilEntered, 0)
}

// awaitDecision pumps messages until the current round's resolving exception
// is known locally.
func (th *Thread) awaitDecision(f *frame) error {
	return th.pump(f, untilDecided, 0)
}

// exitAction runs the §3.4 signalling exchange as the synchronous exit
// protocol. decided is false when the exit was abandoned because a peer
// raised a same-round exception instead of voting.
func (th *Thread) exitAction(f *frame) (dec signal.Decision, decided bool, err error) {
	f.sigDec, f.hasSigDec = signal.Decision{}, false
	f.sig = signal.New(signal.Config{
		Action: f.id,
		Self:   th.id,
		Peers:  f.peers,
		Round:  f.round,
		Send:   th.sendFn,
		Undo:   f.undoFn,
	})
	if d0 := f.sig.Start(f.epsilon); d0.Done {
		f.sigDec, f.hasSigDec = d0, true
	}
	// Replay same-round votes that arrived before the local vote was cast.
	// Nothing appends to f.votes meanwhile: the owner is not parked, so no
	// deliverer routes on this thread, and the buffer is emptied in place to
	// keep its capacity for the next exit.
	for i := range f.votes {
		m := &f.votes[i].Msg
		if m.Kind != protocol.KindToBeSignalled || m.Round != f.round || f.sig == nil {
			continue
		}
		dd, derr := f.sig.Deliver(m.From, m)
		if derr != nil {
			th.logf("vote.error", "%v", derr)
			continue
		}
		if dd.Done {
			f.sigDec, f.hasSigDec = dd, true
		}
	}
	clear(f.votes)
	f.votes = f.votes[:0]

	timeout := f.spec.Timing.SignalTimeout
	if timeout == 0 {
		timeout = th.rt.sigTO
	}
	deadline := time.Duration(0)
	if timeout > 0 {
		deadline = th.rt.clock.Now() + timeout
	}
	err = th.pump(f, untilExitDecision, deadline)
	if (errors.Is(err, errSignalTimeout) || errors.Is(err, ErrDeadline)) && f.sig != nil {
		// §3.4 extension: missing votes — lost messages, or votes a
		// deadline-doomed action can no longer afford to wait for — count
		// as ƒ, so the exit still concludes coordinately.
		if th.logOn {
			th.logf("exit.timeout", "%s: treating missing votes as ƒ", f.id)
		}
		dm := f.sig.MarkFailed(f.sig.Missing()...)
		if dm.Done {
			f.sigDec, f.hasSigDec = dm, true
		} else if err = th.pump(f, untilExitDecision, 0); err != nil {
			return signal.Decision{}, false, err
		}
	} else if err != nil {
		return signal.Decision{}, false, err
	}
	if f.sig == nil {
		return signal.Decision{}, false, nil // abandoned: resolution round begins
	}
	res, ok := f.sigDec, f.hasSigDec
	f.sig.Release()
	f.sig = nil
	f.sigDec, f.hasSigDec = signal.Decision{}, false
	return res, ok, nil
}

// undo runs the role's undo operations for the signalling exchange's
// case 2. The frame binds it once, as undoFn, when it is first allocated.
func (f *frame) undo() error {
	f.th.rt.counters.undos.Add(1)
	return f.tx.Undo()
}

// finalize commits or rolls back external effects per the coordinated signal
// and reports the per-thread outcome.
func (th *Thread) finalize(f *frame, dec signal.Decision) error {
	defer th.popFrame(f)
	switch dec.Signal {
	case except.None:
		if err := f.tx.Commit(); err != nil {
			th.logf("commit.error", "%s: %v", f.id, err)
		}
		th.rt.counters.completions.Add(1)
		th.recordOutcome(f, "ok")
		if th.logOn {
			th.logf("exit", "%s: success", f.id)
		}
		return nil
	case except.Undo:
		th.rt.counters.undone.Add(1)
		th.recordOutcome(f, "undone")
		if th.logOn {
			th.logf("exit", "%s: undone (µ)", f.id)
		}
		return &SignalledError{Action: f.id, Spec: f.spec.Name, Exc: except.Undo}
	case except.Failure:
		if !dec.UndoDone {
			_ = f.tx.Undo() // best effort; failure already coordinated
		}
		th.rt.counters.failed.Add(1)
		th.recordOutcome(f, "failed")
		if th.logOn {
			th.logf("exit", "%s: failed (ƒ)", f.id)
		}
		return &SignalledError{Action: f.id, Spec: f.spec.Name, Exc: except.Failure}
	default:
		if err := f.tx.Commit(); err != nil {
			th.logf("commit.error", "%s: %v", f.id, err)
		}
		th.rt.counters.signalled.Add(1)
		if th.rt.rec != nil {
			// Built only for a recorder: the concatenation allocates.
			th.rt.rec.RecordOutcome(th.id, f.id, "signalled:"+string(dec.Signal))
		}
		if th.logOn {
			th.logf("exit", "%s: signalling %s", f.id, dec.Signal)
		}
		return &SignalledError{Action: f.id, Spec: f.spec.Name, Exc: dec.Signal}
	}
}

// recordOutcome writes the action's final local outcome ahead of the pop;
// a nil recorder costs one comparison.
func (th *Thread) recordOutcome(f *frame, outcome string) {
	if th.rt.rec != nil {
		th.rt.rec.RecordOutcome(th.id, f.id, outcome)
	}
}

// runAbortion executes the abortion of this frame as part of a cascade to an
// enclosing action: the abortion handler runs to completion (modelled cost
// Tabo), then the role's external-object effects are undone best-effort.
func (th *Thread) runAbortion(ctx *Context) except.ID {
	f := ctx.f
	f.aborting = true
	th.rt.clock.Sleep(f.spec.Timing.Abortion)
	eab := except.None
	if f.prog.OnAbort != nil {
		eab = f.prog.OnAbort(ctx)
	}
	_ = f.tx.Undo()
	return eab
}

// absorbAbort finishes an abort cascade at its target frame: the abortion
// handler's exception Eab (if any) is raised here, then the enclosing-action
// message that triggered the cascade is processed, leaving the frame
// suspended or exceptional pending resolution (§3.3.2's post-abortion
// branch).
func (th *Thread) absorbAbort(f *frame, ae *abortError) error {
	th.ensureInstance(f)
	var ctrl error = &f.interruptErr
	if ae.eab != except.None {
		exc := except.Raised{ID: ae.eab, Origin: th.id, Info: "abortion handler", At: th.rt.clock.Now()}
		th.rt.counters.raises.Add(1)
		if th.rt.rec != nil {
			th.rt.rec.RecordRaise(th.id, f.id, f.round, string(ae.eab))
		}
		out := f.inst.Raise(exc)
		f.tx.Inform(exc)
		if out.Decided && !f.hasDecided {
			f.decided, f.hasDecided = out, true
		}
		ctrl = &f.raiseErr
	}
	// Nothing appends to pendingAbort meanwhile (the owner is not parked, and
	// this frame is innermost now), so the buffer is emptied in place to keep
	// its capacity.
	for i := range f.pendingAbort {
		d := &f.pendingAbort[i]
		out, err := f.inst.Deliver(d.From, d.Msg)
		if err != nil {
			th.logf("resolve.error", "absorb: %v", err)
			continue
		}
		th.applyOutcome(f, d, out)
	}
	clear(f.pendingAbort)
	f.pendingAbort = f.pendingAbort[:0]
	f.informed = true
	return ctrl
}

// enclosingAbortTarget reports the innermost enclosing frame (strictly above
// f) holding an unprocessed abort trigger.
func (th *Thread) enclosingAbortTarget(f *frame) string {
	for i := len(th.stack) - 1; i >= 0; i-- {
		if th.stack[i] == f {
			for j := i - 1; j >= 0; j-- {
				if len(th.stack[j].pendingAbort) > 0 {
					return th.stack[j].id
				}
			}
			return ""
		}
	}
	return ""
}

// pumpCond selects what a pump waits for. An enum (instead of a stop
// closure) keeps the protocol wait loops allocation-free — pumps run per
// barrier, per round and per exit on every action.
type pumpCond int

const (
	// untilEntered: every participant has arrived at the entry barrier.
	untilEntered pumpCond = iota
	// untilDecided: the current round's resolving exception is known.
	untilDecided
	// untilExitDecision: the exit exchange concluded, or was abandoned.
	untilExitDecision
)

func (f *frame) condMet(cond pumpCond) bool {
	switch cond {
	case untilEntered:
		return f.enteredN == len(f.peers)
	case untilDecided:
		return f.hasDecided
	default:
		return f.hasSigDec || f.sig == nil
	}
}

// pump processes incoming deliveries until cond holds. Information verdicts
// (thread informed of concurrent exceptions) are left for cond to observe;
// abort verdicts always unwind. A non-zero deadline bounds the wait with
// errSignalTimeout. The thread's action deadline (SetDeadline) clamps every
// pump — a doomed action must unwind with ErrDeadline instead of waiting on
// peers past its budget.
func (th *Thread) pump(f *frame, cond pumpCond, deadline time.Duration) error {
	if th.deadline > 0 && (deadline == 0 || th.deadline < deadline) {
		deadline = th.deadline
	}
	if th.inline {
		return th.pumpInline(f, cond, deadline)
	}
	for {
		if t := th.enclosingAbortTarget(f); t != "" && !f.aborting {
			return f.abort(t)
		}
		if f.condMet(cond) {
			return nil
		}
		var d transport.Delivery
		var ok bool
		if deadline > 0 {
			now := th.rt.clock.Now()
			if now >= deadline {
				return th.deadlineErr(now)
			}
			d, ok = th.ep.RecvTimeout(deadline - now)
			if !ok {
				if now = th.rt.clock.Now(); now >= deadline {
					return th.deadlineErr(now)
				}
				return ErrThreadStopped
			}
		} else {
			d, ok = th.ep.Recv()
			if !ok {
				return ErrThreadStopped
			}
		}
		v := th.route(&d)
		if v.abortTarget != "" && !f.aborting {
			return f.abort(v.abortTarget)
		}
	}
}

// deadlineErr picks the error for an expired pump wait: ErrDeadline when the
// thread's propagated action deadline is the (or a) constraint that expired,
// errSignalTimeout when only the protocol wait's own deadline did.
func (th *Thread) deadlineErr(now time.Duration) error {
	if th.deadline > 0 && now >= th.deadline {
		return ErrDeadline
	}
	return errSignalTimeout
}
