package transport

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"caaction/internal/protocol"
	"caaction/internal/vclock"
)

// BenchmarkMuxDeliver is the mux-dispatch rung: on the real clock over the
// sim, 16 concurrent instances share the same 3 thread addresses, and each
// passes one protocol message round its ring of Mux endpoints
// (T1→T2→T3→T1…), receiving each before sending the next. One op is one
// message: ns/msg is wall time per message across the instances, allocs/msg
// is heap allocations per message.
func BenchmarkMuxDeliver(b *testing.B) {
	clk := vclock.NewReal()
	mux := NewMux(clk, NewSim(SimConfig{Clock: clk}))
	defer func() { _ = mux.Close() }()

	const instances = 16
	threads := [3]string{"T1", "T2", "T3"}
	eps := make([][3]Endpoint, instances)
	msgs := make([][3]protocol.Message, instances)
	for i := range eps {
		tag := fmt.Sprintf("i%d", i)
		for j, th := range threads {
			ep, err := mux.Open(tag, th)
			if err != nil {
				b.Fatal(err)
			}
			eps[i][j] = ep
			msgs[i][j] = protocol.Message{Kind: protocol.KindEnter, Action: protocol.TagInstance(tag, "act#1"), From: th}
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, instances)
	start := make(chan struct{})
	for i := range eps {
		wg.Add(1)
		go func(ring [3]Endpoint, msg [3]protocol.Message) {
			defer wg.Done()
			<-start
			for j := 0; next.Add(1) <= int64(b.N); j = (j + 1) % 3 {
				to := (j + 1) % 3
				if err := ring[j].Send(threads[to], msg[j]); err != nil {
					errs <- err
					return
				}
				if _, ok := ring[to].Recv(); !ok {
					errs <- fmt.Errorf("%s closed", threads[to])
					return
				}
			}
		}(eps[i], msgs[i])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	close(start)
	wg.Wait()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/msg")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/msg")
	for i := range eps {
		closeAll(eps[i][:]...)
	}
}
