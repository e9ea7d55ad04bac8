package vclock

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSequentialRunToBlock verifies that under sequential scheduling at most
// one tracked goroutine executes at a time, even when several are runnable at
// the same virtual instant.
func TestSequentialRunToBlock(t *testing.T) {
	v := NewVirtualSequential()
	var mu sync.Mutex
	active, maxActive := 0, 0
	enter := func() {
		mu.Lock()
		active++
		if active > maxActive {
			maxActive = active
		}
		mu.Unlock()
	}
	leave := func() {
		mu.Lock()
		active--
		mu.Unlock()
	}
	for i := 0; i < 8; i++ {
		v.Go(func() {
			for step := 0; step < 50; step++ {
				enter()
				// A tight non-blocking section: under concurrent wake-up
				// several goroutines would overlap here.
				for spin := 0; spin < 100; spin++ {
					_ = spin * spin
				}
				leave()
				v.Sleep(time.Millisecond)
			}
		})
	}
	v.Wait()
	if maxActive != 1 {
		t.Fatalf("max concurrently running goroutines = %d, want 1", maxActive)
	}
}

// TestSequentialDeterministicOrder verifies that the interleaving of
// same-instant wake-ups is identical across runs: goroutines woken at the
// same virtual instant resume in start order, every time.
func TestSequentialDeterministicOrder(t *testing.T) {
	run := func() string {
		v := NewVirtualSequential()
		var mu sync.Mutex
		var order []string
		v.Run(func() {
			for i := 0; i < 6; i++ {
				i := i
				v.Go(func() {
					for step := 0; step < 10; step++ {
						v.Sleep(time.Millisecond) // all six wake at the same instant
						mu.Lock()
						order = append(order, fmt.Sprintf("g%d.%d", i, step))
						mu.Unlock()
					}
				})
			}
		})
		return fmt.Sprint(order)
	}
	first := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d produced a different interleaving:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestSequentialQueues verifies producer/consumer traffic through
// clock-mediated queues under sequential scheduling, including timed gets.
func TestSequentialQueues(t *testing.T) {
	v := NewVirtualSequential()
	q := v.NewQueue()
	const n = 100
	var got []int
	v.Go(func() {
		for i := 0; i < n; i++ {
			q.PutAfter(time.Duration(i)*time.Millisecond, i)
		}
	})
	v.Go(func() {
		for i := 0; i < n; i++ {
			x, ok := q.GetTimeout(time.Second)
			if !ok {
				return
			}
			got = append(got, x.(int))
		}
	})
	v.Wait()
	if len(got) != n {
		t.Fatalf("received %d items, want %d", len(got), n)
	}
	for i, x := range got {
		if x != i {
			t.Fatalf("got[%d] = %d, want %d", i, x, i)
		}
	}
	if v.Now() != time.Duration(n-1)*time.Millisecond {
		t.Fatalf("final time %v, want %v", v.Now(), time.Duration(n-1)*time.Millisecond)
	}
}

// TestSequentialDeadlockRelease verifies that a custom deadlock handler
// releases every blocked goroutine so sequential simulations can unwind after
// a stall.
func TestSequentialDeadlockRelease(t *testing.T) {
	v := NewVirtualSequential()
	var stalled string
	v.SetDeadlockHandler(func(info string) { stalled = info })
	q := v.NewQueue()
	var okA, okB bool
	v.Go(func() { _, okA = q.Get() })
	v.Go(func() { _, okB = q.Get() })
	v.Wait()
	if stalled == "" {
		t.Fatal("deadlock handler not invoked")
	}
	if okA || okB {
		t.Fatalf("gets returned ok after deadlock: %v %v", okA, okB)
	}
}

// TestSequentialAfterFunc verifies AfterFunc fires at the requested instant.
func TestSequentialAfterFunc(t *testing.T) {
	v := NewVirtualSequential()
	var at time.Duration
	v.AfterFunc(250*time.Millisecond, func() { at = v.Now() })
	v.Go(func() { v.Sleep(time.Second) })
	v.Wait()
	if at != 250*time.Millisecond {
		t.Fatalf("fired at %v, want 250ms", at)
	}
}

// TestSequentialAdopt verifies Adopt/Release participate in the turn-taking.
func TestSequentialAdopt(t *testing.T) {
	v := NewVirtualSequential()
	q := v.NewQueue()
	v.Go(func() {
		v.Sleep(10 * time.Millisecond)
		q.Put("hello")
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v.Adopt()
		defer v.Release()
		x, ok := q.Get()
		if !ok || x != "hello" {
			t.Errorf("Get = %v, %v", x, ok)
		}
	}()
	<-done
	v.Wait()
}

// TestSequentialDaemonWakesOnUntrackedPut pins the daemon-idle wake path:
// when every tracked goroutine is a parked daemon (the mux-pump idle state),
// a Put or Close from an untracked goroutine must grant the daemon the run
// token — without it, the stimulus would sit unprocessed until unrelated
// tracked activity. The assertion is timing-independent; the sleep below
// only biases execution toward the genuinely idle state before the Put.
func TestSequentialDaemonWakesOnUntrackedPut(t *testing.T) {
	v := NewVirtualSequential()
	q := v.NewQueue()
	q.SetDaemon()
	got := make(chan any, 2)
	v.Go(func() {
		for {
			x, ok := q.Get()
			if !ok {
				return
			}
			got <- x
		}
	})
	time.Sleep(10 * time.Millisecond) // bias: let the daemon park first
	q.Put(42)
	select {
	case x := <-got:
		if x != 42 {
			t.Fatalf("daemon received %v, want 42", x)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never woken by an untracked Put in the idle state")
	}
	q.Close()
	v.Wait()
}

// TestSequentialDaemonIdleIsNotDeadlock checks that a sequential system
// whose only parked goroutine is a daemon does not trip the deadlock
// handler: it is idle, awaiting external stimulus.
func TestSequentialDaemonIdleIsNotDeadlock(t *testing.T) {
	v := NewVirtualSequential()
	dead := make(chan string, 1)
	v.SetDeadlockHandler(func(info string) { dead <- info })
	q := v.NewQueue()
	q.SetDaemon()
	v.Go(func() {
		for {
			if _, ok := q.Get(); !ok {
				return
			}
		}
	})
	// A tracked workload that finishes, leaving only the daemon parked.
	v.Go(func() { v.Sleep(time.Millisecond) })
	select {
	case info := <-dead:
		t.Fatalf("daemon-only idle state reported as deadlock: %s", info)
	case <-time.After(50 * time.Millisecond):
	}
	q.Close()
	v.Wait()
}
