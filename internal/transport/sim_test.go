package transport

import (
	"testing"
	"time"

	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/trace"
	"caaction/internal/vclock"
)

func ping(n int) protocol.Message {
	return protocol.Message{Kind: protocol.KindEnter, Action: "a", From: "x", Role: string(rune('0' + n))}
}

func TestSimDeliversWithLatency(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{Clock: clk, Latency: FixedLatency(200 * time.Millisecond)})
	a, err := net.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	clk.Run(func() {
		clk.Go(func() {
			d, ok := b.Recv()
			if !ok || d.From != "A" {
				t.Errorf("recv = %+v, %v", d, ok)
			}
			at = clk.Now()
		})
		clk.Go(func() {
			if err := a.Send("B", ping(1)); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	})
	if at != 200*time.Millisecond {
		t.Fatalf("delivered at %v, want 200ms", at)
	}
}

// TestSimRejectsUnknownKind: the sim, like the TCP codec, refuses a message
// of no known kind, on the locked path and on the real-time fast path.
func TestSimRejectsUnknownKind(t *testing.T) {
	for _, clk := range []vclock.Clock{vclock.NewVirtual(), vclock.NewReal()} {
		net := NewSim(SimConfig{Clock: clk})
		a, _ := net.Endpoint("A")
		b, _ := net.Endpoint("B")
		if err := a.Send("B", protocol.Message{Kind: protocol.Kind(protocol.NumKinds), Action: "a"}); err == nil {
			t.Errorf("%T: message of no known kind sent without error", clk)
		}
		if n := b.Pending(); n != 0 {
			t.Errorf("%T: %d deliveries after a refused send", clk, n)
		}
		_ = net.Close()
	}
}

func TestSimFIFOPerPairUnderJitter(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{
		Clock:   clk,
		Latency: JitterLatency(100*time.Millisecond, 90*time.Millisecond, 7),
	})
	a, _ := net.Endpoint("A")
	b, _ := net.Endpoint("B")
	const n = 50
	var got []string
	clk.Run(func() {
		clk.Go(func() {
			for i := 0; i < n; i++ {
				if err := a.Send("B", protocol.Message{Kind: protocol.KindSuspended, Action: "x", From: string(rune('a' + i%26))}); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		})
		clk.Go(func() {
			for i := 0; i < n; i++ {
				d, ok := b.Recv()
				if !ok {
					t.Error("closed early")
					return
				}
				got = append(got, d.Msg.From)
			}
		})
	})
	for i := range got {
		if got[i] != string(rune('a'+i%26)) {
			t.Fatalf("out of order at %d: %q", i, got[i])
		}
	}
}

func TestSimMetricsCountByKind(t *testing.T) {
	clk := vclock.NewVirtual()
	var m trace.Metrics
	net := NewSim(SimConfig{Clock: clk, Metrics: &m})
	a, _ := net.Endpoint("A")
	b, _ := net.Endpoint("B")
	clk.Run(func() {
		clk.Go(func() {
			_ = a.Send("B", protocol.Message{Kind: protocol.KindException, Action: "x", From: "A", Exc: except.Raised{ID: "e1"}})
			_ = a.Send("B", protocol.Message{Kind: protocol.KindSuspended, Action: "x", From: "A"})
			_ = a.Send("B", protocol.Message{Kind: protocol.KindSuspended, Action: "x", From: "A"})
		})
		clk.Go(func() {
			for i := 0; i < 3; i++ {
				b.Recv()
			}
		})
	})
	if m.Get("msg.Exception") != 1 || m.Get("msg.Suspended") != 2 || m.Get("msg.total") != 3 {
		t.Fatalf("metrics:\n%s", m.String())
	}
}

func TestSimFaultDropAndCorrupt(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{Clock: clk})
	a, _ := net.Endpoint("A")
	b, _ := net.Endpoint("B")
	i := 0
	net.SetFault(func(from, to string, msg protocol.Message) Fault {
		i++
		switch i {
		case 1:
			return Drop
		case 2:
			return Corrupt
		default:
			return Deliver
		}
	})
	var deliveries []Delivery
	clk.Go(func() {
		_ = a.Send("B", ping(1)) // dropped
		_ = a.Send("B", ping(2)) // corrupted
		_ = a.Send("B", ping(3)) // clean
		for k := 0; k < 2; k++ {
			d, ok := b.Recv()
			if !ok {
				t.Error("closed early")
				return
			}
			deliveries = append(deliveries, d)
		}
	})
	clk.Wait()
	if len(deliveries) != 2 {
		t.Fatalf("got %d deliveries", len(deliveries))
	}
	if !deliveries[0].Corrupt || deliveries[1].Corrupt {
		t.Fatalf("corrupt flags: %+v", deliveries)
	}
}

func TestSimErrors(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{Clock: clk})
	a, _ := net.Endpoint("A")
	if _, err := net.Endpoint("A"); err == nil {
		t.Fatal("duplicate address accepted")
	}
	if err := a.Send("nope", ping(1)); err == nil {
		t.Fatal("send to unknown address succeeded")
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("A", ping(1)); err == nil {
		t.Fatal("send after close succeeded")
	}
	if _, err := net.Endpoint("B"); err == nil {
		t.Fatal("endpoint after close succeeded")
	}
}

func TestSimRecvTimeout(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{Clock: clk})
	a, _ := net.Endpoint("A")
	var ok bool
	clk.Go(func() {
		_, ok = a.RecvTimeout(time.Second)
	})
	clk.Wait()
	if ok {
		t.Fatal("RecvTimeout on silent network returned ok")
	}
}

func TestSimPendingAndEndpointClose(t *testing.T) {
	clk := vclock.NewVirtual()
	net := NewSim(SimConfig{Clock: clk})
	a, _ := net.Endpoint("A")
	b, _ := net.Endpoint("B")
	clk.Go(func() {
		_ = a.Send("B", ping(1))
		clk.Sleep(time.Millisecond)
		if b.Pending() != 1 {
			t.Errorf("pending = %d", b.Pending())
		}
		if err := b.Close(); err != nil {
			t.Error(err)
		}
		if err := a.Send("B", ping(2)); err == nil {
			t.Error("send to closed endpoint succeeded")
		}
	})
	clk.Wait()
	// Rebinding a closed address is allowed.
	if _, err := net.Endpoint("B"); err != nil {
		t.Fatalf("rebind: %v", err)
	}
}
