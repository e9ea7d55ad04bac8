package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"caaction/internal/protocol"
	"caaction/internal/vclock"
)

// inlineMux builds a real-clock sim+mux pair, the configuration under which
// the run-to-completion delivery lane activates.
func inlineMux(t *testing.T) (*Sim, *Mux) {
	t.Helper()
	clk := vclock.NewReal()
	sim := NewSim(SimConfig{Clock: clk})
	return sim, NewMux(clk, sim)
}

// stubRouter is a scriptable InlineRouter: it records every inline-routed
// delivery, reports a settable park condition, and emits a fixed set of
// deferred sends per routed step. All fields are mutex-guarded because
// RouteInline runs on delivering goroutines while the owner inspects the
// record after waking.
type stubRouter struct {
	mu       sync.Mutex
	routed   []Delivery
	ready    bool
	emit     []Outbound // deferred per RouteInline call
	deferred *[]Outbound
	sendErrs []string
}

func (r *stubRouter) RouteInline(d Delivery) {
	r.mu.Lock()
	r.routed = append(r.routed, d)
	if len(r.emit) > 0 {
		if r.deferred == nil {
			r.deferred = BorrowOutbound()
		}
		*r.deferred = append(*r.deferred, r.emit...)
	}
	r.mu.Unlock()
}

func (r *stubRouter) ParkReady() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ready
}

func (r *stubRouter) TakeDeferred() *[]Outbound {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.deferred
	r.deferred = nil
	return out
}

func (r *stubRouter) InlineSendError(to string, err error) {
	r.mu.Lock()
	r.sendErrs = append(r.sendErrs, to+": "+err.Error())
	r.mu.Unlock()
}

func (r *stubRouter) setReady(b bool) {
	r.mu.Lock()
	r.ready = b
	r.mu.Unlock()
}

func (r *stubRouter) routedFroms() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var froms []string
	for _, d := range r.routed {
		froms = append(froms, d.Msg.From)
	}
	return froms
}

// inlineEP asserts an endpoint supports the lane interface.
func inlineEP(t *testing.T, ep Endpoint) InlineEndpoint {
	t.Helper()
	ie, ok := ep.(InlineEndpoint)
	if !ok {
		t.Fatalf("%T does not implement InlineEndpoint", ep)
	}
	return ie
}

// waitParked polls the endpoint's park flag (under its delivery lock) until
// the owner goroutine has committed to a park, so a test's sends land on a
// genuinely parked thread rather than racing the park transition.
func waitParked(t *testing.T, ep Endpoint) {
	t.Helper()
	me := ep.(*muxEndpoint)
	for deadline := time.Now().Add(10 * time.Second); ; {
		me.imu.Lock()
		p := me.inl.parked
		me.imu.Unlock()
		if p {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("owner never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInlineAdoptRouterContract pins when AdoptRouter accepts: only on a
// real-clock mux with the lane enabled, a non-nil router, an open endpoint,
// and at most once per incarnation.
func TestInlineAdoptRouterContract(t *testing.T) {
	// Virtual clock: the lane never activates, golden traces depend on it.
	_, _, vmux := muxPair(t)
	vep, err := vmux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	if inlineEP(t, vep).AdoptRouter(&stubRouter{}) {
		t.Error("AdoptRouter accepted under the virtual clock")
	}
	_ = vep.Close()

	// Real clock but lane disabled by option.
	clk := vclock.NewReal()
	nsim := NewSim(SimConfig{Clock: clk})
	nmux := NewMuxOpts(clk, nsim, MuxOptions{NoInline: true})
	nep, err := nmux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	if inlineEP(t, nep).AdoptRouter(&stubRouter{}) {
		t.Error("AdoptRouter accepted with NoInline set")
	}
	_ = nep.Close()

	// Real clock, lane on: nil refused, first adopt wins, second refused.
	_, mux := inlineMux(t)
	ep, err := mux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	ie := inlineEP(t, ep)
	if ie.AdoptRouter(nil) {
		t.Error("AdoptRouter accepted a nil router")
	}
	if !ie.AdoptRouter(&stubRouter{}) {
		t.Error("AdoptRouter refused a live real-clock endpoint")
	}
	if ie.AdoptRouter(&stubRouter{}) {
		t.Error("AdoptRouter accepted a second router")
	}
	_ = ep.Close()

	// A closed endpoint refuses adoption until recycled.
	ep2, err := mux.Open("i2", "T2")
	if err != nil {
		t.Fatal(err)
	}
	_ = ep2.Close()
	if inlineEP(t, ep2).AdoptRouter(&stubRouter{}) {
		t.Error("AdoptRouter accepted a closed endpoint")
	}
}

// TestInlineAdoptMigratesQueue checks the mode switch: deliveries buffered
// before a thread adopts the endpoint (queue mode) move to the inline inbox
// in arrival order, ahead of anything delivered afterwards.
func TestInlineAdoptMigratesQueue(t *testing.T) {
	_, mux := inlineMux(t)
	a, err := mux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mux.Open("i1", "T2")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(a, b)

	send := func(from string) {
		t.Helper()
		msg := protocol.Message{Kind: protocol.KindEnter, Action: protocol.TagInstance("i1", "act#1"), From: from}
		if err := a.Send("T2", msg); err != nil {
			t.Fatalf("send %s: %v", from, err)
		}
	}
	// Pre-adoption: the sink path delivers synchronously into b's queue.
	send("first")
	send("second")
	if n := b.Pending(); n != 2 {
		t.Fatalf("pre-adoption queue holds %d deliveries, want 2", n)
	}

	ie := inlineEP(t, b)
	if !ie.AdoptRouter(&stubRouter{}) {
		t.Fatal("AdoptRouter refused")
	}
	send("third") // post-adoption, owner running: appended to the inbox

	for i, want := range []string{"first", "second", "third"} {
		d, ok := ie.PollInline()
		if !ok {
			t.Fatalf("delivery %d missing after migration", i)
		}
		if got := d.Msg.From; got != want {
			t.Fatalf("delivery %d = %q, want %q (order broken across mode switch)", i, got, want)
		}
	}
	if _, ok := ie.PollInline(); ok {
		t.Error("inbox not empty after draining")
	}
}

// TestInlineParkedRouteAndWake is the heart of the lane: deliveries to a
// parked owner execute on the sender's goroutine, and the owner is woken
// only when the routed step completes its wait condition.
func TestInlineParkedRouteAndWake(t *testing.T) {
	_, mux := inlineMux(t)
	a, err := mux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mux.Open("i1", "T2")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(a, b)

	r := &stubRouter{} // ready=false: first step must not wake the owner
	ie := inlineEP(t, b)
	if !ie.AdoptRouter(r) {
		t.Fatal("AdoptRouter refused")
	}

	woke := make(chan InlineStatus, 1)
	go func() {
		_, st := ie.AwaitInline(30 * time.Second)
		woke <- st
	}()
	waitParked(t, b)

	send := func(from string) {
		t.Helper()
		msg := protocol.Message{Kind: protocol.KindEnter, Action: protocol.TagInstance("i1", "act#1"), From: from}
		if err := a.Send("T2", msg); err != nil {
			t.Fatalf("send %s: %v", from, err)
		}
	}
	// The sink path is synchronous: by the time Send returns, the step ran
	// inline on this goroutine.
	send("step1")
	if froms := r.routedFroms(); len(froms) != 1 || froms[0] != "step1" {
		t.Fatalf("after first send routed = %v, want [step1]", froms)
	}
	select {
	case st := <-woke:
		t.Fatalf("owner woke (%v) though the park condition does not hold", st)
	default:
	}

	r.setReady(true)
	send("step2")
	select {
	case st := <-woke:
		if st != InlineWoken {
			t.Fatalf("owner woke with status %v, want InlineWoken", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("owner never woke after the condition became true")
	}
	if froms := r.routedFroms(); len(froms) != 2 || froms[1] != "step2" {
		t.Fatalf("routed = %v, want [step1 step2]", froms)
	}
}

// TestInlineBuffersWhileRunning checks the unparked case: deliveries to a
// running owner buffer in the inbox (never routed on the sender) and surface
// through Await/Poll.
func TestInlineBuffersWhileRunning(t *testing.T) {
	_, mux := inlineMux(t)
	a, err := mux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mux.Open("i1", "T2")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(a, b)

	r := &stubRouter{ready: true}
	ie := inlineEP(t, b)
	if !ie.AdoptRouter(r) {
		t.Fatal("AdoptRouter refused")
	}
	if err := a.Send("T2", enter("i1", "T1")); err != nil {
		t.Fatal(err)
	}
	if froms := r.routedFroms(); len(froms) != 0 {
		t.Fatalf("delivery to a running owner was inline-routed: %v", froms)
	}
	d, st := ie.AwaitInline(time.Second)
	if st != InlineDelivery {
		t.Fatalf("AwaitInline = %v, want InlineDelivery", st)
	}
	if inst := protocol.InstanceOf(d.Msg.Action); inst != "i1" {
		t.Fatalf("buffered delivery for %q, want i1", inst)
	}
}

// TestInlineDeferredSendsFlushBeforeWake pins the cross-endpoint handoff
// order: sends deferred by an inline-routed step are flushed — including
// error reporting for unreachable peers — strictly before the owner wakes,
// so the owner's subsequent sends can never overtake them.
func TestInlineDeferredSendsFlushBeforeWake(t *testing.T) {
	_, mux := inlineMux(t)
	a, err := mux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mux.Open("i1", "T2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := mux.Open("i1", "T3")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(a, b, c)

	r := &stubRouter{
		ready: true,
		emit: []Outbound{
			{To: "T3", Msg: protocol.Message{Kind: protocol.KindEnter, Action: protocol.TagInstance("i1", "act#1"), From: "deferred"}},
			{To: "NOWHERE", Msg: enter("i1", "T2")},
		},
	}
	ie := inlineEP(t, b)
	if !ie.AdoptRouter(r) {
		t.Fatal("AdoptRouter refused")
	}

	woke := make(chan InlineStatus, 1)
	go func() {
		_, st := ie.AwaitInline(30 * time.Second)
		woke <- st
	}()
	waitParked(t, b)
	if err := a.Send("T2", enter("i1", "T1")); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-woke:
		if st != InlineWoken {
			t.Fatalf("owner woke with %v, want InlineWoken", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("owner never woke")
	}
	// The wake happens-after the flush: the deferred send must already sit
	// in T3's queue, with no settling delay.
	if n := c.Pending(); n != 1 {
		t.Fatalf("deferred send not flushed before wake: T3 has %d pending, want 1", n)
	}
	d, ok := c.RecvTimeout(time.Second)
	if !ok {
		t.Fatal("T3 endpoint closed early")
	}
	if got := d.Msg.From; got != "deferred" {
		t.Fatalf("T3 received %q, want the deferred step send", got)
	}
	r.mu.Lock()
	errs := append([]string(nil), r.sendErrs...)
	r.mu.Unlock()
	if len(errs) != 1 || !strings.HasPrefix(errs[0], "NOWHERE:") {
		t.Fatalf("failed deferred send not reported to the router: %v", errs)
	}
}

// TestInlineAwaitTimeoutSelfUnparks checks the timer path: an expired wait
// reports InlineTimeout and fully retracts the park, so later deliveries
// buffer instead of executing against a thread that is no longer waiting.
func TestInlineAwaitTimeoutSelfUnparks(t *testing.T) {
	_, mux := inlineMux(t)
	a, err := mux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mux.Open("i1", "T2")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(a, b)

	r := &stubRouter{}
	ie := inlineEP(t, b)
	if !ie.AdoptRouter(r) {
		t.Fatal("AdoptRouter refused")
	}
	if _, st := ie.AwaitInline(10 * time.Millisecond); st != InlineTimeout {
		t.Fatalf("AwaitInline = %v, want InlineTimeout", st)
	}
	me := b.(*muxEndpoint)
	me.imu.Lock()
	parked := me.inl.parked
	me.imu.Unlock()
	if parked {
		t.Fatal("endpoint still parked after a timeout")
	}
	if err := a.Send("T2", enter("i1", "T1")); err != nil {
		t.Fatal(err)
	}
	if froms := r.routedFroms(); len(froms) != 0 {
		t.Fatalf("post-timeout delivery was inline-routed: %v", froms)
	}
	if _, st := ie.AwaitInline(time.Second); st != InlineDelivery {
		t.Fatalf("post-timeout AwaitInline = %v, want InlineDelivery", st)
	}
}

// TestInlineCloseWakesParkedOwner checks teardown of a parked thread (a
// cancellation watcher closing the endpoint out from under it): the owner
// wakes, and once the inbox is drained the lane reports InlineClosed.
func TestInlineCloseWakesParkedOwner(t *testing.T) {
	_, mux := inlineMux(t)
	b, err := mux.Open("i1", "T2")
	if err != nil {
		t.Fatal(err)
	}
	r := &stubRouter{}
	ie := inlineEP(t, b)
	if !ie.AdoptRouter(r) {
		t.Fatal("AdoptRouter refused")
	}
	woke := make(chan InlineStatus, 1)
	go func() {
		_, st := ie.AwaitInline(-1) // no deadline: only the close can end it
		woke <- st
	}()
	waitParked(t, b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-woke:
		if st != InlineWoken {
			t.Fatalf("owner woke with %v, want InlineWoken", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close did not wake the parked owner")
	}
	if _, st := ie.AwaitInline(time.Second); st != InlineClosed {
		t.Fatalf("AwaitInline after close = %v, want InlineClosed", st)
	}
}

// TestInlineCloseDrainsInbox checks the close ordering the Recv path also
// honours: buffered deliveries surface before the closed status does.
func TestInlineCloseDrainsInbox(t *testing.T) {
	_, mux := inlineMux(t)
	a, err := mux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mux.Open("i1", "T2")
	if err != nil {
		t.Fatal(err)
	}
	ie := inlineEP(t, b)
	if !ie.AdoptRouter(&stubRouter{}) {
		t.Fatal("AdoptRouter refused")
	}
	for i := 0; i < 2; i++ {
		if err := a.Send("T2", enter("i1", "T1")); err != nil {
			t.Fatal(err)
		}
	}
	_ = b.Close()
	_ = a.Close()
	for i := 0; i < 2; i++ {
		if _, st := ie.AwaitInline(time.Second); st != InlineDelivery {
			t.Fatalf("delivery %d after close: status %v, want InlineDelivery", i, st)
		}
	}
	if _, st := ie.AwaitInline(time.Second); st != InlineClosed {
		t.Fatalf("drained endpoint reports %v, want InlineClosed", st)
	}
}

// TestInlineRecycleHygiene pins the lane half of the endpoint-recycle
// contract: after RecycleEndpoint the router is detached, the inbox is empty
// with its cursor reset, and the parked/closed markers are scrubbed — while
// the wake channel survives for the next incarnation. A still-open endpoint
// must keep its router.
func TestInlineRecycleHygiene(t *testing.T) {
	_, mux := inlineMux(t)
	a, err := mux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mux.Open("i1", "T2")
	if err != nil {
		t.Fatal(err)
	}
	ie := inlineEP(t, b)
	if !ie.AdoptRouter(&stubRouter{}) {
		t.Fatal("AdoptRouter refused")
	}
	// Leave the inbox mid-drain: two buffered, one popped (head cursor set).
	for i := 0; i < 2; i++ {
		if err := a.Send("T2", enter("i1", "T1")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := ie.PollInline(); !ok {
		t.Fatal("setup: no delivery to pop")
	}
	_ = b.Close()
	_ = a.Close()
	RecycleEndpoint(b)

	me := b.(*muxEndpoint)
	me.imu.Lock()
	inl := &me.inl
	if inl.router != nil {
		t.Error("recycled endpoint keeps its router")
	}
	if len(inl.inbox) != 0 || inl.head != 0 {
		t.Errorf("recycled inbox not scrubbed: len=%d head=%d", len(inl.inbox), inl.head)
	}
	if inl.parked || inl.closed {
		t.Errorf("recycled lane keeps state: parked=%v closed=%v", inl.parked, inl.closed)
	}
	if inl.wake == nil {
		t.Error("wake channel did not survive recycling")
	}
	me.imu.Unlock()

	// An endpoint still routed must never recycle — its router stays.
	c, err := mux.Open("i2", "T3")
	if err != nil {
		t.Fatal(err)
	}
	if !inlineEP(t, c).AdoptRouter(&stubRouter{}) {
		t.Fatal("AdoptRouter refused")
	}
	RecycleEndpoint(c)
	mc := c.(*muxEndpoint)
	mc.imu.Lock()
	kept := mc.inl.router != nil
	mc.imu.Unlock()
	if !kept {
		t.Error("RecycleEndpoint scrubbed a still-open endpoint's router")
	}
	_ = c.Close()
}

// TestInlineChurnRace hammers the full lane lifecycle the way a saturated
// runtime does: many goroutines cycling open/adopt/park/deliver/close/
// recycle across a spread of thread addresses, with short timed parks so the
// timer-versus-wake claimed-park race runs constantly. Run under -race (CI
// does) it is the regression test for the park/claim/wake handshake, the
// sender-side sink path's frame recycling, and inline state reuse across
// endpoint incarnations.
func TestInlineChurnRace(t *testing.T) {
	_, mux := inlineMux(t)

	const goroutines = 8
	const addrSpread = 2 * muxShardCount
	cycles := 3000
	if testing.Short() {
		cycles = 500
	}
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			for i := 0; i < cycles; i++ {
				inst := fmt.Sprintf("g%d-c%d", g, i)
				tx := fmt.Sprintf("S%d", (g*31+i)%addrSpread)
				rx := fmt.Sprintf("S%d", (g*31+i+1)%addrSpread)
				if tx == rx {
					rx += "x"
				}
				a, err := mux.Open(inst, tx)
				if err != nil {
					errs <- fmt.Errorf("g%d c%d open tx: %w", g, i, err)
					return
				}
				b, err := mux.Open(inst, rx)
				if err != nil {
					_ = a.Close()
					errs <- fmt.Errorf("g%d c%d open rx: %w", g, i, err)
					return
				}
				r := &stubRouter{ready: true}
				ie := b.(InlineEndpoint)
				if !ie.AdoptRouter(r) {
					errs <- fmt.Errorf("g%d c%d: AdoptRouter refused a fresh endpoint", g, i)
					return
				}
				sent := make(chan error, 1)
				go func() {
					sent <- a.Send(rx, protocol.Message{Kind: protocol.KindEnter, Action: protocol.TagInstance(inst, "act#1"), From: tx})
				}()
				// Short timed parks: the sender races the timer, so both the
				// inline-route wakeup and the claimed-park timeout path run.
				var got string
				for deadline := time.Now().Add(30 * time.Second); got == ""; {
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("g%d c%d: delivery lost", g, i)
						return
					}
					d, st := ie.AwaitInline(2 * time.Millisecond)
					switch st {
					case InlineDelivery:
						got = protocol.InstanceOf(d.Msg.Action)
					case InlineWoken:
						r.mu.Lock()
						if len(r.routed) > 0 {
							got = protocol.InstanceOf(r.routed[0].Msg.Action)
						}
						r.mu.Unlock()
					case InlineTimeout:
						// keep waiting
					case InlineClosed:
						errs <- fmt.Errorf("g%d c%d: endpoint closed mid-cycle", g, i)
						return
					}
				}
				if got != inst {
					errs <- fmt.Errorf("g%d c%d: cross-instance delivery %q", g, i, got)
					return
				}
				if err := <-sent; err != nil {
					errs <- fmt.Errorf("g%d c%d send: %w", g, i, err)
					return
				}
				_ = a.Close()
				_ = b.Close()
				RecycleEndpoint(a)
				RecycleEndpoint(b)
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
