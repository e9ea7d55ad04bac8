package vclock

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualSleepAdvancesTime(t *testing.T) {
	v := NewVirtual()
	var at time.Duration
	v.Go(func() {
		v.Sleep(3 * time.Second)
		at = v.Now()
	})
	v.Wait()
	if at != 3*time.Second {
		t.Fatalf("Now after Sleep(3s) = %v, want 3s", at)
	}
}

func TestVirtualSleepZeroOrNegative(t *testing.T) {
	v := NewVirtual()
	v.Go(func() {
		v.Sleep(0)
		v.Sleep(-time.Second)
	})
	v.Wait()
	if got := v.Now(); got != 0 {
		t.Fatalf("Now = %v, want 0", got)
	}
}

func TestVirtualConcurrentSleepersOrdering(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	var order []string
	record := func(name string) {
		mu.Lock()
		defer mu.Unlock()
		order = append(order, name)
	}
	v.Go(func() { v.Sleep(2 * time.Second); record("b") })
	v.Go(func() { v.Sleep(1 * time.Second); record("a") })
	v.Go(func() { v.Sleep(3 * time.Second); record("c") })
	v.Wait()
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("wake order = %q, want abc", got)
	}
	if v.Now() != 3*time.Second {
		t.Fatalf("final Now = %v, want 3s", v.Now())
	}
}

func TestVirtualQueuePutGet(t *testing.T) {
	v := NewVirtual()
	q := v.NewQueue()
	var got []any
	v.Go(func() {
		for i := 0; i < 3; i++ {
			x, ok := q.Get()
			if !ok {
				t.Error("Get returned !ok")
				return
			}
			got = append(got, x)
		}
	})
	v.Go(func() {
		q.Put(1)
		q.Put(2)
		q.Put(3)
	})
	v.Wait()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("received %v, want [1 2 3]", got)
	}
}

func TestVirtualQueuePutAfterDelaysDelivery(t *testing.T) {
	v := NewVirtual()
	q := v.NewQueue()
	var at time.Duration
	v.Go(func() {
		q.PutAfter(5*time.Second, "late")
		x, ok := q.Get()
		if !ok || x != "late" {
			t.Errorf("Get = %v, %v", x, ok)
		}
		at = v.Now()
	})
	v.Wait()
	if at != 5*time.Second {
		t.Fatalf("delivery at %v, want 5s", at)
	}
}

func TestVirtualQueueFIFOAcrossSameInstant(t *testing.T) {
	v := NewVirtual()
	q := v.NewQueue()
	var got []any
	v.Go(func() {
		// Two deliveries scheduled for the same virtual instant must
		// arrive in scheduling order.
		q.PutAfter(time.Second, "first")
		q.PutAfter(time.Second, "second")
		for i := 0; i < 2; i++ {
			x, _ := q.Get()
			got = append(got, x)
		}
	})
	v.Wait()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("order = %v", got)
	}
}

func TestVirtualGetTimeoutExpires(t *testing.T) {
	v := NewVirtual()
	q := v.NewQueue()
	var ok bool
	var at time.Duration
	v.Go(func() {
		_, ok = q.GetTimeout(2 * time.Second)
		at = v.Now()
	})
	v.Wait()
	if ok {
		t.Fatal("GetTimeout returned ok on empty queue")
	}
	if at != 2*time.Second {
		t.Fatalf("timed out at %v, want 2s", at)
	}
}

func TestVirtualGetTimeoutReceivesEarlier(t *testing.T) {
	v := NewVirtual()
	q := v.NewQueue()
	var got any
	var at time.Duration
	v.Go(func() {
		q.PutAfter(time.Second, 42)
		got, _ = q.GetTimeout(10 * time.Second)
		at = v.Now()
	})
	v.Wait()
	if got != 42 || at != time.Second {
		t.Fatalf("got %v at %v, want 42 at 1s", got, at)
	}
}

func TestVirtualQueueClose(t *testing.T) {
	v := NewVirtual()
	q := v.NewQueue()
	var first, second bool
	var x any
	v.Go(func() {
		q.Put("pending")
		q.Close()
		x, first = q.Get()
		_, second = q.Get()
	})
	v.Wait()
	if !first || x != "pending" {
		t.Fatalf("pre-close element lost: %v %v", x, first)
	}
	if second {
		t.Fatal("Get on closed drained queue returned ok")
	}
}

func TestVirtualTryGet(t *testing.T) {
	v := NewVirtual()
	q := v.NewQueue()
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue returned ok")
	}
	q.Put(7)
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	if x, ok := q.TryGet(); !ok || x != 7 {
		t.Fatalf("TryGet = %v, %v", x, ok)
	}
}

func TestVirtualDeadlockDetection(t *testing.T) {
	v := NewVirtual()
	var info atomic.Value
	v.SetDeadlockHandler(func(s string) { info.Store(s) })
	q := v.NewQueue()
	v.Go(func() {
		q.Get() // never satisfied: nobody puts
	})
	v.Wait()
	s, _ := info.Load().(string)
	if s == "" {
		t.Fatal("deadlock handler not invoked")
	}
	if !strings.Contains(s, "blocked") {
		t.Fatalf("diagnostic %q lacks context", s)
	}
}

func TestVirtualManyProducersConsumers(t *testing.T) {
	v := NewVirtual()
	const producers, perProducer = 8, 50
	q := v.NewQueue()
	var received atomic.Int64
	var remaining atomic.Int64
	remaining.Store(producers)
	// Run, not Go in a loop and Wait: the consumer must not block while it
	// is the only goroutine the clock tracks, or time runs on without the
	// producers not started yet.
	v.Run(func() {
		v.Go(func() {
			for {
				if _, ok := q.Get(); !ok {
					return
				}
				received.Add(1)
			}
		})
		for p := 0; p < producers; p++ {
			p := p
			v.Go(func() {
				for i := 0; i < perProducer; i++ {
					v.Sleep(time.Duration(p+1) * time.Millisecond)
					q.Put(i)
				}
				if remaining.Add(-1) == 0 {
					q.Close()
				}
			})
		}
	})
	if received.Load() != producers*perProducer {
		t.Fatalf("received %d, want %d", received.Load(), producers*perProducer)
	}
}

func TestVirtualAdoptRelease(t *testing.T) {
	v := NewVirtual()
	q := v.NewQueue()
	v.Go(func() {
		v.Sleep(time.Second)
		q.Put("hello")
	})
	v.Adopt()
	x, ok := q.Get()
	v.Release()
	if !ok || x != "hello" {
		t.Fatalf("Get = %v, %v", x, ok)
	}
	v.Wait()
}

// TestVirtualRunStartsAllBeforeTime pins Run's start barrier: goroutines
// started inside Run all begin at virtual time zero, even when the scheduler
// lets each one run and block before the next is started.
func TestVirtualRunStartsAllBeforeTime(t *testing.T) {
	for _, v := range []*Virtual{NewVirtual(), NewVirtualSequential()} {
		const n = 8
		var mu sync.Mutex
		var starts []time.Duration
		var order []int
		v.Run(func() {
			for i := 0; i < n; i++ {
				i := i
				v.Go(func() {
					mu.Lock()
					starts = append(starts, v.Now())
					order = append(order, i)
					mu.Unlock()
					v.Sleep(time.Millisecond)
				})
				runtime.Gosched()
				time.Sleep(time.Millisecond)
			}
		})
		if len(starts) != n {
			t.Fatalf("sequential=%v: %d goroutines ran, want %d", v.sequential, len(starts), n)
		}
		for i, at := range starts {
			if at != 0 {
				t.Fatalf("sequential=%v: goroutine %d started at %v, want 0", v.sequential, order[i], at)
			}
		}
		if v.sequential {
			for i, g := range order {
				if g != i {
					t.Fatalf("sequential start order %v, want spawn order", order)
				}
			}
		}
		if now := v.Now(); now != time.Millisecond {
			t.Fatalf("sequential=%v: Now = %v after Run, want 1ms", v.sequential, now)
		}
	}
}

// TestVirtualHoldCoversHandOff pins Hold: work handed to daemon goroutines
// one by one from an untracked caller cannot deadlock the clock before the
// last unit is handed out — the first unit blocks waiting for the second —
// and Wait returns only after every unit's Unhold.
func TestVirtualHoldCoversHandOff(t *testing.T) {
	v := NewVirtual()
	var dead atomic.Value
	v.SetDeadlockHandler(func(s string) { dead.Store(s) })
	q := v.NewQueue()
	var done atomic.Int64
	v.Hold(2)
	v.GoDaemon(func() {
		v.Claim()
		defer v.Unhold()
		if _, ok := q.Get(); ok {
			done.Add(1)
		}
	})
	runtime.Gosched()
	time.Sleep(time.Millisecond)
	v.GoDaemon(func() {
		v.Claim()
		defer v.Unhold()
		v.Sleep(time.Millisecond)
		q.Put("go")
		done.Add(1)
	})
	v.Wait()
	if s, _ := dead.Load().(string); s != "" {
		t.Fatalf("deadlock while handing out held work: %s", s)
	}
	if done.Load() != 2 {
		t.Fatalf("Wait returned after %d of 2 held units", done.Load())
	}
}

func TestRealClockBasics(t *testing.T) {
	r := NewReal()
	q := r.NewQueue()
	r.Go(func() { q.Put(1) })
	if x, ok := q.Get(); !ok || x != 1 {
		t.Fatalf("Get = %v, %v", x, ok)
	}
	if _, ok := q.GetTimeout(5 * time.Millisecond); ok {
		t.Fatal("GetTimeout on empty queue returned ok")
	}
	q.PutAfter(time.Millisecond, 2)
	if x, ok := q.GetTimeout(time.Second); !ok || x != 2 {
		t.Fatalf("delayed Get = %v, %v", x, ok)
	}
	q.Close()
	if _, ok := q.Get(); ok {
		t.Fatal("Get after close returned ok")
	}
	r.Wait()
	if r.Now() <= 0 {
		t.Fatal("Real.Now not advancing")
	}
}

func TestRealTryGetAndLen(t *testing.T) {
	r := NewReal()
	q := r.NewQueue()
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue returned ok")
	}
	q.Put("x")
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
	if x, ok := q.TryGet(); !ok || x != "x" {
		t.Fatalf("TryGet = %v %v", x, ok)
	}
}

// TestVirtualIdleClockStaysAtLastEvent: a receive satisfied before its
// timeout leaves the timeout's wake-up scheduled. Once the receiver has
// finished and only a daemon wait is parked, the clock is idle: it must stay
// at the receive's instant instead of running on to the stale wake-up, while
// a delivery due at the current instant still reaches the daemon.
func TestVirtualIdleClockStaysAtLastEvent(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		v := NewVirtual()
		if sequential {
			v = NewVirtualSequential()
		}
		infra := v.NewQueue()
		infra.SetDaemon()
		var got atomic.Int64
		q := v.NewQueue()
		v.Run(func() {
			v.GoDaemon(func() {
				for {
					x, ok := infra.Get()
					if !ok {
						return
					}
					got.Add(int64(x.(int)))
				}
			})
			v.Go(func() {
				q.PutAfter(time.Second, 1)
				if _, ok := q.GetTimeout(time.Hour); !ok {
					t.Error("receive timed out")
				}
				infra.PutAfter(0, 7)
			})
		})
		if now := v.Now(); now != time.Second {
			t.Errorf("sequential=%v: idle clock at %v, want the last event's 1s", sequential, now)
		}
		for deadline := time.Now().Add(5 * time.Second); got.Load() != 7; {
			if time.Now().After(deadline) {
				t.Fatalf("sequential=%v: the delivery due now never reached the daemon", sequential)
			}
			time.Sleep(time.Millisecond)
		}
		infra.Close()
	}
}
