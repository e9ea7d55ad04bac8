// Comparison: the three resolution protocols side by side on one workload —
// N threads raising concurrently — printing message counts and virtual
// completion time. This is a miniature of the paper's §5.3 comparison plus
// the §3.3.3 complexity table, runnable in milliseconds. Protocols are
// picked from the public registry by name, the same mechanism the CLIs'
// flags use.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"caaction"
)

const (
	numThreads = 5
	latency    = 50 * time.Millisecond
	treso      = 20 * time.Millisecond
)

func main() {
	log.SetFlags(0)
	fmt.Printf("N=%d threads, Tmmax=%v, Treso=%v, all raising concurrently\n\n",
		numThreads, latency, treso)
	fmt.Printf("%-14s %10s %10s %12s %12s\n",
		"protocol", "messages", "resolves", "virtual time", "resolved")
	for _, name := range []string{"coordinated", "r96", "cr86"} {
		msgs, calls, elapsed, resolved := run(name)
		fmt.Printf("%-14s %10d %10d %12v %12s\n",
			name, msgs, calls, elapsed, resolved)
	}
	fmt.Println("\nclosed forms (§3.3.3): ours (N+1)(N−1)=24, R-96 3N(N−1)=60,")
	fmt.Println("CR-86 N(N−1)+N(N−1)(N−2)+N(N−1) relays/proposes = 100 at N=5")
}

func run(protocol string) (msgs, calls int64, elapsed time.Duration, resolved caaction.Exception) {
	sys, err := caaction.New(
		caaction.WithVirtualTime(),
		caaction.WithSimTransport(latency),
		caaction.WithResolver(protocol),
	)
	if err != nil {
		log.Fatal(err)
	}

	prims := make([]caaction.Exception, numThreads)
	for i := range prims {
		prims[i] = caaction.Exception(fmt.Sprintf("e%d", i+1))
	}
	graph, err := caaction.GenerateFullGraph("cmp", prims)
	if err != nil {
		log.Fatal(err)
	}
	builder := caaction.NewSpec("cmp").UseGraph(graph).ResolutionCost(treso)
	for i := 0; i < numThreads; i++ {
		builder.Role(fmt.Sprintf("r%d", i+1), fmt.Sprintf("T%d", i+1))
	}
	spec, err := builder.Build()
	if err != nil {
		log.Fatal(err)
	}

	var mu sync.Mutex
	handler := func(ctx *caaction.Context, res caaction.Exception, _ []caaction.Raised) error {
		mu.Lock()
		resolved = res
		mu.Unlock()
		return nil
	}
	handlers := map[caaction.Exception]caaction.Handler{}
	for _, id := range graph.Nodes() {
		handlers[id] = handler
	}

	progs := make(map[string]caaction.RoleProgram, len(spec.Roles))
	for i, r := range spec.Roles {
		exc := prims[i]
		progs[r.Name] = caaction.RoleProgram{
			Body: func(ctx *caaction.Context) error {
				if err := ctx.Compute(100 * time.Millisecond); err != nil {
					return err
				}
				return ctx.Raise(exc, "concurrent fault")
			},
			Handlers: handlers,
		}
	}
	h, err := sys.StartAction(context.Background(), spec, progs)
	if err != nil {
		log.Fatal(err)
	}
	sys.Wait()
	if err := h.Err(); err != nil {
		log.Fatal(err)
	}

	metrics := sys.Metrics()
	msgs = metrics.Get("msg.Exception") + metrics.Get("msg.Suspended") +
		metrics.Get("msg.Commit") + metrics.Get("msg.Relay") +
		metrics.Get("msg.Propose") + metrics.Get("msg.Ack")
	return msgs, metrics.Get("resolve.calls"), sys.Now(), resolved
}
