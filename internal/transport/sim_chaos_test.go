package transport

import (
	"sync"
	"testing"
	"time"

	"caaction/internal/protocol"
	"caaction/internal/vclock"
)

func TestSimPerturbDuplicate(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{Clock: clk})
	a, _ := net.Endpoint("A")
	b, _ := net.Endpoint("B")
	net.SetPerturb(func(from, to string, msg protocol.Message) Verdict {
		return Verdict{Copies: 2}
	})
	var got int
	clk.Run(func() {
		clk.Go(func() {
			for {
				if _, ok := b.RecvTimeout(time.Second); !ok {
					return
				}
				got++
			}
		})
		clk.Go(func() {
			if err := a.Send("B", ping(1)); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	})
	if got != 3 {
		t.Fatalf("received %d copies, want 3", got)
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 3 || st.Duplicated != 2 {
		t.Fatalf("stats = %+v, want Sent=1 Delivered=3 Duplicated=2", st)
	}
}

func TestSimPerturbReorderBypassesFIFO(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{Clock: clk, Latency: FixedLatency(10 * time.Millisecond)})
	a, _ := net.Endpoint("A")
	b, _ := net.Endpoint("B")
	// Delay the first message past the second; only the first is exempted
	// from the FIFO clamp, so the second overtakes it.
	first := true
	net.SetPerturb(func(from, to string, msg protocol.Message) Verdict {
		if first {
			first = false
			return Verdict{Reorder: true, Delay: 100 * time.Millisecond}
		}
		return Verdict{}
	})
	var order []int
	clk.Run(func() {
		clk.Go(func() {
			for i := 0; i < 2; i++ {
				d, ok := b.Recv()
				if !ok {
					return
				}
				order = append(order, int(d.Msg.Role[0]-'0'))
			}
		})
		clk.Go(func() {
			_ = a.Send("B", ping(1))
			_ = a.Send("B", ping(2))
		})
	})
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("delivery order = %v, want [2 1]", order)
	}
	if st := net.Stats(); st.Reordered != 1 || st.Delayed != 1 {
		t.Fatalf("stats = %+v, want Reordered=1 Delayed=1", st)
	}
}

func TestSimPerturbDropAndCorrupt(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{Clock: clk})
	a, _ := net.Endpoint("A")
	b, _ := net.Endpoint("B")
	n := 0
	net.SetPerturb(func(from, to string, msg protocol.Message) Verdict {
		n++
		switch n {
		case 1:
			return Verdict{Fault: Drop}
		case 2:
			return Verdict{Fault: Corrupt}
		default:
			return Verdict{}
		}
	})
	var deliveries []Delivery
	clk.Run(func() {
		clk.Go(func() {
			for {
				d, ok := b.RecvTimeout(time.Second)
				if !ok {
					return
				}
				deliveries = append(deliveries, d)
			}
		})
		clk.Go(func() {
			for i := 0; i < 3; i++ {
				_ = a.Send("B", ping(i))
			}
		})
	})
	if len(deliveries) != 2 {
		t.Fatalf("got %d deliveries, want 2 (one dropped)", len(deliveries))
	}
	if !deliveries[0].Corrupt || deliveries[1].Corrupt {
		t.Fatalf("corrupt flags = %v %v, want true false", deliveries[0].Corrupt, deliveries[1].Corrupt)
	}
	st := net.Stats()
	if st.Sent != 3 || st.Dropped != 1 || st.Corrupted != 1 || st.Delivered != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSimCloseEndpointCrashStop(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{Clock: clk})
	a, _ := net.Endpoint("A")
	b, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	// A delivery already buffered at B must be discarded by the crash: a
	// crashed process does not drain its inbox.
	clk.Go(func() {
		if err := a.Send("B", ping(1)); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	clk.Wait()
	if !net.CloseEndpoint("B") {
		t.Fatal("CloseEndpoint(B) = false, want true")
	}
	if net.CloseEndpoint("B") {
		t.Fatal("second CloseEndpoint(B) = true, want false")
	}
	var recvOK bool
	clk.Go(func() { _, recvOK = b.Recv() })
	clk.Wait()
	if recvOK {
		t.Fatal("crashed endpoint drained a buffered delivery, want ok=false")
	}
	if b.Pending() != 0 {
		t.Fatalf("crashed endpoint reports %d pending, want 0", b.Pending())
	}
	// The crashed thread's own sends are suppressed, not errors.
	if err := b.Send("A", ping(2)); err != nil {
		t.Fatalf("crashed sender got error %v, want silent suppression", err)
	}
	if st := net.Stats(); st.Sent != 1 {
		t.Fatalf("suppressed send counted: stats %+v", st)
	}
	if err := a.Send("B", ping(3)); err == nil {
		t.Fatal("send to crashed endpoint succeeded, want ErrUnknownAddr")
	}
}

// TestSimStatsConcurrentReaders samples Stats from an untracked goroutine
// while tracked senders are running — the reader/writer race the chaos
// harness exercises (run under -race).
func TestSimStatsConcurrentReaders(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{Clock: clk, Latency: FixedLatency(time.Millisecond)})
	a, _ := net.Endpoint("A")
	b, _ := net.Endpoint("B")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = net.Stats()
			}
		}
	}()
	clk.Run(func() {
		clk.Go(func() {
			for i := 0; i < 500; i++ {
				_ = a.Send("B", ping(i))
				clk.Sleep(time.Microsecond)
			}
		})
		clk.Go(func() {
			for i := 0; i < 500; i++ {
				if _, ok := b.Recv(); !ok {
					return
				}
			}
		})
	})
	close(stop)
	wg.Wait()
	if st := net.Stats(); st.Sent != 500 || st.Delivered != 500 {
		t.Fatalf("stats = %+v, want Sent=500 Delivered=500", st)
	}
}
