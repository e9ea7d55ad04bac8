package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"caaction/internal/protocol"
	"caaction/internal/vclock"
)

func muxPair(t *testing.T) (*vclock.Virtual, *Sim, *Mux) {
	t.Helper()
	clk := vclock.NewVirtual()
	sim := NewSim(SimConfig{Clock: clk})
	return clk, sim, NewMux(clk, sim)
}

// enter builds the simplest routable message for one instance.
func enter(instance, from string) protocol.Message {
	return protocol.Message{Kind: protocol.KindEnter, Action: protocol.TagInstance(instance, "act#1"), From: from}
}

func closeAll(eps ...Endpoint) {
	for _, ep := range eps {
		_ = ep.Close()
	}
}

// TestMuxRoutesByInstance sends interleaved traffic for two instances over
// one shared endpoint pair and checks each virtual endpoint sees exactly its
// own instance's messages.
func TestMuxRoutesByInstance(t *testing.T) {
	clk, _, mux := muxPair(t)

	open := func(instance, thread string) Endpoint {
		ep, err := mux.Open(instance, thread)
		if err != nil {
			t.Fatalf("Open(%s, %s): %v", instance, thread, err)
		}
		return ep
	}
	a1, b1 := open("i1", "T1"), open("i1", "T2")
	a2, b2 := open("i2", "T1"), open("i2", "T2")
	if a1.Addr() != "T1" || a2.Addr() != "T1" {
		t.Fatalf("virtual endpoints report addrs %q/%q, want thread address", a1.Addr(), a2.Addr())
	}

	got := make(chan string, 2)
	recvOne := func(ep Endpoint, label string) {
		clk.Go(func() {
			d, ok := ep.Recv()
			if !ok {
				t.Errorf("%s: endpoint closed early", label)
				got <- label + ":closed"
				return
			}
			got <- label + ":" + protocol.InstanceOf(d.Msg.Action)
		})
	}
	// One tracked root spawns the receivers: spawned one by one from the
	// untracked test goroutine, both could block before the sender exists,
	// and the clock would declare a deadlock.
	clk.Go(func() {
		recvOne(b1, "b1")
		recvOne(b2, "b2")
		if err := a1.Send("T2", enter("i1", "T1")); err != nil {
			t.Errorf("send i1: %v", err)
		}
		if err := a2.Send("T2", enter("i2", "T1")); err != nil {
			t.Errorf("send i2: %v", err)
		}
	})
	seen := map[string]bool{<-got: true, <-got: true}
	if !seen["b1:i1"] || !seen["b2:i2"] {
		t.Fatalf("routing wrong: %v", seen)
	}
	closeAll(a1, b1, a2, b2) // tears down both pumps, so Wait returns
	clk.Wait()
}

// TestMuxRetainsEarlyTraffic delivers a message for an instance before that
// instance opens locally; Open must flush it.
func TestMuxRetainsEarlyTraffic(t *testing.T) {
	clk, _, mux := muxPair(t)
	a, err := mux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	// T2's shared endpoint exists (instance i1 open) but instance i9 has not
	// opened there yet.
	b, err := mux.Open("i1", "T2")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	clk.Go(func() {
		defer close(done)
		if err := a.Send("T2", enter("i9", "T1")); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		// Let the pump retain it, then open the instance and receive.
		clk.Sleep(time.Millisecond)
		late, err := mux.Open("i9", "T2")
		if err != nil {
			t.Errorf("late open: %v", err)
			return
		}
		defer closeAll(late)
		d, ok := late.RecvTimeout(time.Second)
		if !ok {
			t.Error("retained delivery not flushed to late-opened instance")
			return
		}
		if inst := protocol.InstanceOf(d.Msg.Action); inst != "i9" {
			t.Errorf("flushed delivery for %q, want i9", inst)
		}
	})
	<-done
	closeAll(a, b)
	clk.Wait()
}

// TestMuxGarbageCollection closes the last instance of an address and checks
// (a) the shared endpoint is torn down, (b) the address is released for
// re-binding.
func TestMuxGarbageCollection(t *testing.T) {
	clk, sim, mux := muxPair(t)
	a, err := mux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mux.Open("i1", "T2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mux.Open("i1", "T2"); !errors.Is(err, ErrDuplicateAddr) {
		t.Fatalf("duplicate open = %v, want ErrDuplicateAddr", err)
	}

	if err := b.Close(); err != nil {
		t.Fatalf("close T2 instance: %v", err)
	}
	// T2's only instance completed: the shared endpoint is gone, so a send
	// to it now fails at the network layer.
	done := make(chan struct{})
	clk.Go(func() {
		defer close(done)
		if err := a.Send("T2", enter("i1", "T1")); !errors.Is(err, ErrUnknownAddr) {
			t.Errorf("send to GCed address = %v, want ErrUnknownAddr", err)
		}
	})
	<-done
	if err := a.Close(); err != nil {
		t.Fatalf("close T1 instance: %v", err)
	}
	clk.Wait() // both pumps exited

	// The addresses are free again: raw binds must succeed.
	for _, addr := range []string{"T1", "T2"} {
		if _, err := sim.Endpoint(addr); err != nil {
			t.Fatalf("address %s not released after GC: %v", addr, err)
		}
	}
}

// TestMuxDeadInstanceTrafficDropped checks a completed instance's late
// traffic is dropped while another instance keeps the shared endpoint alive
// — for the 2×muxRetainCap instances that completed last too, so their
// tombstones outlast a retained set's worth of late frames — and that a
// fresh instance's early message is still retained and replayed at Open.
func TestMuxDeadInstanceTrafficDropped(t *testing.T) {
	clk, _, mux := muxPair(t)
	a, _ := mux.Open("i1", "T1")
	dead, _ := mux.Open("i1", "T2")
	alive, _ := mux.Open("i2", "T2")
	_ = dead.Close()
	const completed = 2 * muxRetainCap
	for i := 0; i < completed; i++ {
		ep, err := mux.Open(fmt.Sprintf("d%d", i), "T2")
		if err != nil {
			t.Fatal(err)
		}
		_ = ep.Close()
		RecycleEndpoint(ep)
	}
	sh := alive.(*muxEndpoint).shared
	retained := func() int {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.retainedLen
	}

	done := make(chan struct{})
	clk.Go(func() {
		defer close(done)
		_ = a.Send("T2", enter("i1", "T1")) // for the completed instance
		for i := 0; i < completed; i++ {    // by tag, for the other completed ones
			_ = a.Send("T2", enter(fmt.Sprintf("d%d", i), "T1"))
		}
		_ = a.Send("T2", enter("i2", "T1")) // for the live one
		d, ok := alive.Recv()
		if !ok {
			t.Error("live instance closed early")
			return
		}
		if inst := protocol.InstanceOf(d.Msg.Action); inst != "i2" {
			t.Errorf("live instance received %q's traffic", inst)
		}
		if alive.Pending() != 0 {
			t.Errorf("dead instance's traffic leaked: %d pending", alive.Pending())
		}
		if n := retained(); n != 0 {
			t.Errorf("%d late deliveries for completed instances retained", n)
		}

		_ = a.Send("T2", enter("fresh", "T1"))
		clk.Sleep(time.Millisecond) // let the pump retain it
		if n := retained(); n != 1 {
			t.Errorf("fresh instance's early message: %d retained, want 1", n)
		}
		fresh, err := mux.Open("fresh", "T2")
		if err != nil {
			t.Error(err)
			return
		}
		defer closeAll(fresh)
		if d, ok := fresh.RecvTimeout(time.Second); !ok {
			t.Error("early message not replayed at Open")
		} else if inst := protocol.InstanceOf(d.Msg.Action); inst != "fresh" {
			t.Errorf("replayed %q's message, want fresh", inst)
		}
	})
	<-done
	closeAll(a, alive)
	clk.Wait()
}

// TestMuxStaleHandleDropped resolves a handle for instance i1's endpoint on
// T2, then closes and recycles that endpoint until a later instance's Open
// reuses it. A message sent on the stale handle must not reach the reused
// endpoint: its generation moved on with the recycle.
func TestMuxStaleHandleDropped(t *testing.T) {
	clk, _, mux := muxPair(t)
	open := func(instance, thread string) Endpoint {
		t.Helper()
		ep, err := mux.Open(instance, thread)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	a := open("i1", "T1")
	keep := open("i0", "T2") // keeps T2's shared endpoint, so the handle's, bound
	var reused Endpoint
	for try := 0; reused == nil; try++ {
		if try == 100 {
			t.Fatal("the endpoint pool never handed a recycled endpoint back")
		}
		b := open("i1", "T2")
		_ = b.Close()
		RecycleEndpoint(b)
		if c := open(fmt.Sprintf("i2-%d", try), "T2"); c == b {
			reused = c
		} else {
			_ = c.Close()
			RecycleEndpoint(c)
		}
	}
	tag := reused.(*muxEndpoint).rec.tag

	done := make(chan struct{})
	clk.Go(func() {
		defer close(done)
		// i1's newest T2 entry is the recycled endpoint's previous
		// incarnation; the second message goes by tag to the reused one.
		_ = a.Send("T2", enter("i1", "T1"))
		_ = a.Send("T2", enter(tag, "T1"))
		d, ok := reused.Recv()
		if !ok {
			t.Error("reused endpoint closed early")
			return
		}
		if inst := protocol.InstanceOf(d.Msg.Action); inst != tag {
			t.Errorf("reused endpoint of %s received %s's message on a stale handle", tag, inst)
		}
	})
	<-done
	closeAll(a, keep, reused)
	clk.Wait()
}

// TestMuxConcurrentDeliveryRace delivers to distinct instances on one
// address from many goroutines at once, while other instances on the same
// addresses open, close with messages in flight and recycle their
// endpoints. Under -race (CI runs it at -cpu 1,4) it checks the handle
// delivery's locking; every run checks that no message crosses into
// another instance or a later incarnation.
func TestMuxConcurrentDeliveryRace(t *testing.T) {
	_, mux := inlineMux(t)
	const steady, churn = 4, 4
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	check := func(ep Endpoint, inst string, timeout time.Duration) error {
		d, ok := ep.RecvTimeout(timeout)
		if !ok {
			return fmt.Errorf("%s: delivery lost", inst)
		}
		if got := protocol.InstanceOf(d.Msg.Action); got != inst {
			return fmt.Errorf("%s received %s's message", inst, got)
		}
		return nil
	}
	open := func(inst string) (tx, rx Endpoint, err error) {
		if tx, err = mux.Open(inst, "S"); err == nil {
			rx, err = mux.Open(inst, "R")
		}
		return tx, rx, err
	}
	errs := make(chan error, steady+churn)
	for g := 0; g < steady; g++ {
		go func(inst string) {
			tx, rx, err := open(inst)
			for i := 0; err == nil && i < rounds; i++ {
				if err = tx.Send("R", enter(inst, "S")); err == nil {
					err = check(rx, inst, 10*time.Second)
				}
			}
			closeAll(tx, rx)
			errs <- err
		}(fmt.Sprintf("s%d", g))
	}
	for g := 0; g < churn; g++ {
		go func(g int) {
			var err error
			for i := 0; err == nil && i < rounds; i++ {
				inst := fmt.Sprintf("c%d-%d", g, i)
				var tx, rx Endpoint
				if tx, rx, err = open(inst); err != nil {
					break
				}
				_ = tx.Send("R", enter(inst, "S"))
				_ = tx.Send("R", enter(inst, "S")) // left queued at Close
				err = check(rx, inst, 10*time.Second)
				_ = rx.Close()
				// A send on rx's now-stale handle races its recycling (and
				// the endpoint's reuse by another goroutine's Open).
				stale := make(chan struct{})
				go func() {
					_ = tx.Send("R", enter(inst, "S"))
					close(stale)
				}()
				RecycleEndpoint(rx)
				<-stale
				_ = tx.Close()
				RecycleEndpoint(tx)
			}
			errs <- err
		}(g)
	}
	for g := 0; g < steady+churn; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMuxCrashPropagates crash-stops a shared endpoint and checks every open
// instance on it observes the stop.
func TestMuxCrashPropagates(t *testing.T) {
	clk, sim, mux := muxPair(t)
	a, _ := mux.Open("i1", "T1")
	b1, _ := mux.Open("i1", "T2")
	b2, _ := mux.Open("i2", "T2")

	done := make(chan struct{})
	clk.Go(func() {
		defer close(done)
		sim.CloseEndpoint("T2")
		for _, ep := range []Endpoint{b1, b2} {
			if _, ok := ep.Recv(); ok {
				t.Error("instance endpoint survived a crash-stop of its address")
			}
		}
	})
	<-done
	closeAll(a, b1, b2)
	clk.Wait()
}

// TestMuxOpenCloseChurn hammers one thread address with concurrent
// open/close cycles from many goroutines. This is the regression test for a
// teardown-ordering race: the last Close of an address must fully release
// the underlying endpoint before the address book forgets it, or a racing
// Open re-binds against the still-bound endpoint and spuriously fails with
// ErrDuplicateAddr.
func TestMuxOpenCloseChurn(t *testing.T) {
	clk := vclock.NewReal() // real concurrency is the point here
	sim := NewSim(SimConfig{Clock: clk})
	mux := NewMux(clk, sim)

	const goroutines = 8
	cycles := 50000 // the broken ordering fails within ~10k cycles
	if testing.Short() {
		cycles = 5000
	}
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			for i := 0; i < cycles; i++ {
				ep, err := mux.Open(fmt.Sprintf("g%d-c%d", g, i), "T1")
				if err != nil {
					errs <- fmt.Errorf("goroutine %d cycle %d: %w", g, i, err)
					return
				}
				if err := ep.Close(); err != nil {
					errs <- fmt.Errorf("goroutine %d cycle %d close: %w", g, i, err)
					return
				}
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

// TestMuxLongLivedInstanceStaysBounded: one endpoint of an instance stays
// open while its other addresses open and close over and over (threads of
// System.Thread's instance coming and going). The instance's record keeps
// one entry per address, not one per Open, and a message still reaches the
// address's newest endpoint.
func TestMuxLongLivedInstanceStaysBounded(t *testing.T) {
	clk := vclock.NewReal()
	mux := NewMux(clk, NewSim(SimConfig{Clock: clk}))
	keep, err := mux.Open("t", "T0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(keep)
	for i := 0; i < 1000; i++ {
		ep, err := mux.Open("t", fmt.Sprintf("T%d", 1+i%3))
		if err != nil {
			t.Fatal(err)
		}
		_ = ep.Close()
	}
	if n := keep.(*muxEndpoint).rec.n.Load(); n > 4+4 {
		t.Fatalf("record holds %d entries after 1000 opens over 4 addresses, want at most 8", n)
	}
	t1, err := mux.Open("t", "T1")
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t1)
	if err := keep.Send("T1", enter("t", "T0")); err != nil {
		t.Fatal(err)
	}
	if d, ok := t1.RecvTimeout(5 * time.Second); !ok || d.From != "T0" {
		t.Fatalf("newest T1 endpoint got %+v, %v; want the message from T0", d, ok)
	}
}

func TestMuxOpenValidation(t *testing.T) {
	_, _, mux := muxPair(t)
	if _, err := mux.Open("", "T1"); err == nil {
		t.Error("empty instance tag accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reserved character in instance tag did not panic")
			}
		}()
		_, _ = mux.Open("a!b", "T1")
	}()
	if err := mux.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mux.Open("i1", "T1"); !errors.Is(err, ErrClosed) {
		t.Errorf("Open after Close = %v, want ErrClosed", err)
	}
}

// TestMuxShardedChurnRace exercises the lock-striped address table the way
// a saturated multi-action runtime does: many goroutines cycling
// open/route/close across a spread of thread addresses (hence shards), with
// endpoint recycling in the loop, plus a dedicated clique hammering ONE
// address so the Open-vs-last-Close teardown retry path runs constantly.
// Run under -race (CI does) it is the regression test for both the shard
// bookkeeping and the audited Open busy-spin.
func TestMuxShardedChurnRace(t *testing.T) {
	clk := vclock.NewReal() // real concurrency is the point here
	sim := NewSim(SimConfig{Clock: clk})
	mux := NewMux(clk, sim)

	const goroutines = 12
	const addrSpread = 2 * muxShardCount // several addresses per shard
	cycles := 20000
	if testing.Short() {
		cycles = 2000
	}
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			for i := 0; i < cycles; i++ {
				inst := fmt.Sprintf("g%d-c%d", g, i)
				// Goroutines 0-3 fight over one shared address (teardown
				// retry); the rest spread across the shards.
				var tx, rx string
				if g < 4 {
					tx, rx = "H0", "H1"
				} else {
					tx = fmt.Sprintf("S%d", (g*31+i)%addrSpread)
					rx = fmt.Sprintf("S%d", (g*31+i+1)%addrSpread)
				}
				if tx == rx {
					rx = rx + "x"
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
				act := protocol.TagInstance(inst, "act#1")
				if err := a.Send(rx, protocol.Message{Kind: protocol.KindEnter, Action: act, From: tx}); err != nil {
					errs <- fmt.Errorf("g%d c%d send: %w", g, i, err)
					return
				}
				if d, ok := b.RecvTimeout(5 * time.Second); !ok {
					errs <- fmt.Errorf("g%d c%d: delivery lost", g, i)
					return
				} else if got := protocol.InstanceOf(d.Msg.Action); got != inst {
					errs <- fmt.Errorf("g%d c%d: cross-instance delivery %q", g, i, got)
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

// TestRecycleEndpointHygiene pins the endpoint-recycle contract: after
// RecycleEndpoint, the object we still hold has been scrubbed (no shared
// attachment, no instance, an empty reopened queue) and any deliveries that
// were still buffered for the completed instance are gone.
func TestRecycleEndpointHygiene(t *testing.T) {
	clk, _, mux := muxPair(t)

	a, err := mux.Open("i1", "T1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mux.Open("i1", "T2")
	if err != nil {
		t.Fatal(err)
	}
	// Park two deliveries in b's queue and close without consuming them.
	// (No clk.Wait here: the shared endpoints' pumps stay alive while the
	// instances are open, so we poll for the async routing instead.)
	clk.Go(func() {
		_ = a.Send("T2", enter("i1", "T1"))
		_ = a.Send("T2", enter("i1", "T1"))
	})
	for deadline := time.Now().Add(5 * time.Second); b.Pending() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("setup: %d pending deliveries, want 2", b.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	_ = b.Close()
	RecycleEndpoint(b)

	me := b.(*muxEndpoint)
	if me.shared != nil || me.rec != nil {
		t.Errorf("recycled endpoint keeps attachment: shared=%v record=%v", me.shared, me.rec)
	}
	if n := me.queue.Len(); n != 0 {
		t.Errorf("recycled endpoint queue holds %d stale deliveries", n)
	}
	// The reopened queue must accept and yield fresh elements (closed
	// state scrubbed).
	me.queue.Put("fresh")
	if x, ok := me.queue.TryGet(); !ok || x != "fresh" {
		t.Errorf("recycled queue did not reopen: got %v, %v", x, ok)
	}

	// An endpoint still routed must never recycle.
	c, err := mux.Open("i2", "T3")
	if err != nil {
		t.Fatal(err)
	}
	RecycleEndpoint(c)
	if mc := c.(*muxEndpoint); mc.shared == nil || mc.rec == nil || mc.rec.tag != "i2" {
		t.Error("RecycleEndpoint recycled a still-open endpoint")
	}
	_ = c.Close()
	_ = a.Close()
}
