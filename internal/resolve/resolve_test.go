package resolve

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/simenv"
	"caaction/internal/trace"
	"caaction/internal/transport"
)

func wrongRoundMsg() protocol.Message {
	return protocol.Message{Kind: protocol.KindSuspended, Action: "A#1", From: "T2", Round: 99}
}

func wrongActionMsg() protocol.Message {
	return protocol.Message{Kind: protocol.KindSuspended, Action: "other", From: "T2", Round: 1}
}

func unexpectedMsg() protocol.Message {
	return protocol.Message{Kind: protocol.KindEnter, Action: "A#1", From: "T2"}
}

// scenarioResult captures one simulated resolution run.
type scenarioResult struct {
	outcomes     map[string]Outcome
	metrics      *trace.Metrics
	resolveCalls int64
	elapsed      time.Duration
}

// runScenario simulates N threads of one action over the simulated network.
// raisers maps thread ID to the exception it raises (after a per-thread
// stagger); all other threads only react.
func runScenario(t testing.TB, proto Protocol, n int, raisers map[string]except.ID,
	graph *except.Graph, latency, stagger, tres time.Duration) scenarioResult {
	t.Helper()
	return runScenarioWith(t, proto, n, raisers, graph,
		transport.FixedLatency(latency), stagger, tres)
}

// runScenarioJitter is runScenario under seeded jittered latency; per-pair
// FIFO is still enforced by the transport.
func runScenarioJitter(t testing.TB, proto Protocol, n int, raisers map[string]except.ID,
	graph *except.Graph, seed int64) scenarioResult {
	t.Helper()
	return runScenarioWith(t, proto, n, raisers, graph,
		transport.JitterLatency(10*time.Millisecond, 8*time.Millisecond, seed),
		time.Millisecond, 0)
}

func runScenarioWith(t testing.TB, proto Protocol, n int, raisers map[string]except.ID,
	graph *except.Graph, latency transport.LatencyFunc, stagger, tres time.Duration) scenarioResult {
	t.Helper()

	env := simenv.New(simenv.LatencyFunc(latency))
	clk := env.Clock

	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("T%d", i+1)
	}
	SortThreads(peers)

	var calls atomic.Int64
	var mu sync.Mutex
	outcomes := make(map[string]Outcome)

	err := env.Peers(peers, func(i int, ep transport.Endpoint) {
		self := peers[i]
		inst := proto.NewInstance(Config{
			Action: "A#1",
			Self:   self,
			Peers:  peers,
			Round:  0,
			Send: func(to string, msg protocol.Message) {
				if err := ep.Send(to, msg); err != nil {
					t.Errorf("%s send: %v", self, err)
				}
			},
			Resolve: func(raised []except.Raised) except.ID {
				calls.Add(1)
				clk.Sleep(tres)
				id, err := graph.ResolveRaised(raised)
				if err != nil {
					t.Errorf("resolve: %v", err)
				}
				return id
			},
		})
		var out Outcome
		if exc, ok := raisers[self]; ok {
			clk.Sleep(time.Duration(i) * stagger)
			out = inst.Raise(except.Raised{ID: exc, Origin: self, At: clk.Now()})
		}
		for !out.Decided {
			d, ok := ep.Recv()
			if !ok {
				t.Errorf("%s: endpoint closed before decision", self)
				return
			}
			res, err := inst.Deliver(d.From, d.Msg)
			if err != nil {
				t.Errorf("%s deliver: %v", self, err)
				return
			}
			if res.Decided {
				out = res
			}
		}
		mu.Lock()
		outcomes[self] = out
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("endpoints: %v", err)
	}
	return scenarioResult{
		outcomes:     outcomes,
		metrics:      env.Metrics,
		resolveCalls: calls.Load(),
		elapsed:      clk.Now(),
	}
}

func testGraph(t testing.TB, n int) *except.Graph {
	t.Helper()
	prims := make([]except.ID, n)
	for i := range prims {
		prims[i] = except.ID(fmt.Sprintf("e%d", i+1))
	}
	g, err := except.GenerateFull("test", prims)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkAgreement(t *testing.T, res scenarioResult, n int, want except.ID) {
	t.Helper()
	if len(res.outcomes) != n {
		t.Fatalf("only %d/%d threads decided", len(res.outcomes), n)
	}
	for id, out := range res.outcomes {
		if out.Resolved != want {
			t.Fatalf("%s resolved %q, want %q", id, out.Resolved, want)
		}
	}
}

func TestCoordinatedSingleRaiser(t *testing.T) {
	for n := 2; n <= 6; n++ {
		n := n
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			g := testGraph(t, n)
			res := runScenario(t, Coordinated{}, n,
				map[string]except.ID{"T1": "e1"}, g,
				time.Millisecond, 0, 0)
			checkAgreement(t, res, n, "e1")
			// Paper §3.3.3 case 1: (N−1) Exception + (N−1)² Suspended +
			// (N−1) Commit = (N+1)(N−1) messages.
			if got, want := res.metrics.Get("msg.total"), int64((n+1)*(n-1)); got != want {
				t.Errorf("messages = %d, want %d\n%s", got, want, res.metrics)
			}
			if res.metrics.Get("msg.Exception") != int64(n-1) {
				t.Errorf("exceptions = %d", res.metrics.Get("msg.Exception"))
			}
			if res.metrics.Get("msg.Suspended") != int64((n-1)*(n-1)) {
				t.Errorf("suspendeds = %d", res.metrics.Get("msg.Suspended"))
			}
			if res.metrics.Get("msg.Commit") != int64(n-1) {
				t.Errorf("commits = %d", res.metrics.Get("msg.Commit"))
			}
			if res.resolveCalls != 1 {
				t.Errorf("resolution procedure ran %d times, want 1", res.resolveCalls)
			}
		})
	}
}

func TestCoordinatedAllRaise(t *testing.T) {
	for n := 2; n <= 6; n++ {
		n := n
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			g := testGraph(t, n)
			raisers := make(map[string]except.ID, n)
			var ids []except.ID
			for i := 1; i <= n; i++ {
				id := except.ID(fmt.Sprintf("e%d", i))
				raisers[fmt.Sprintf("T%d", i)] = id
				ids = append(ids, id)
			}
			want, err := g.Resolve(ids...)
			if err != nil {
				t.Fatal(err)
			}
			res := runScenario(t, Coordinated{}, n, raisers, g,
				10*time.Millisecond, time.Millisecond, 0)
			checkAgreement(t, res, n, want)
			// Paper §3.3.3 case 2: N(N−1) Exception + (N−1) Commit =
			// (N+1)(N−1) — independent of the number of exceptions.
			if got, wantN := res.metrics.Get("msg.total"), int64((n+1)*(n-1)); got != wantN {
				t.Errorf("messages = %d, want %d\n%s", got, wantN, res.metrics)
			}
			if res.metrics.Get("msg.Suspended") != 0 {
				t.Errorf("unexpected suspendeds:\n%s", res.metrics)
			}
			if res.resolveCalls != 1 {
				t.Errorf("resolution procedure ran %d times, want 1", res.resolveCalls)
			}
		})
	}
}

func TestCoordinatedResolverIsMaxExceptional(t *testing.T) {
	// With raisers T1 and T3 out of 4 threads, T3 must be the resolver:
	// exactly one Commit broadcast, sent by T3.
	g := testGraph(t, 4)
	res := runScenario(t, Coordinated{}, 4,
		map[string]except.ID{"T1": "e1", "T3": "e3"}, g,
		time.Millisecond, 100*time.Microsecond, 0)
	want, _ := g.Resolve("e1", "e3")
	checkAgreement(t, res, 4, want)
	if res.metrics.Get("msg.Commit") != 3 {
		t.Fatalf("commit messages = %d, want 3 (one broadcast)", res.metrics.Get("msg.Commit"))
	}
	if res.resolveCalls != 1 {
		t.Fatalf("resolve calls = %d", res.resolveCalls)
	}
}

func TestCR86AllRaiseCounts(t *testing.T) {
	for n := 3; n <= 5; n++ {
		n := n
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			g := testGraph(t, n)
			raisers := make(map[string]except.ID, n)
			var ids []except.ID
			for i := 1; i <= n; i++ {
				id := except.ID(fmt.Sprintf("e%d", i))
				raisers[fmt.Sprintf("T%d", i)] = id
				ids = append(ids, id)
			}
			want, _ := g.Resolve(ids...)
			res := runScenario(t, CR86{}, n, raisers, g,
				10*time.Millisecond, time.Millisecond, 0)
			checkAgreement(t, res, n, want)
			if got, wantC := res.metrics.Get("msg.Exception"), int64(n*(n-1)); got != wantC {
				t.Errorf("exceptions = %d, want %d", got, wantC)
			}
			if got, wantC := res.metrics.Get("msg.Relay"), int64(n*(n-1)*(n-2)); got != wantC {
				t.Errorf("relays = %d, want %d (the O(N³) term)", got, wantC)
			}
			if got, wantC := res.metrics.Get("msg.Propose"), int64(n*(n-1)); got != wantC {
				t.Errorf("proposes = %d, want %d", got, wantC)
			}
			// Resolution runs per relay plus one verification per thread.
			if got, wantC := res.resolveCalls, int64(n*((n-1)*(n-2)+1)); got != wantC {
				t.Errorf("resolve calls = %d, want %d", got, wantC)
			}
		})
	}
}

func TestCR86SingleRaiser(t *testing.T) {
	g := testGraph(t, 4)
	res := runScenario(t, CR86{}, 4,
		map[string]except.ID{"T2": "e2"}, g,
		time.Millisecond, 0, 0)
	checkAgreement(t, res, 4, "e2")
}

func TestCR86TwoThreadsNoRelays(t *testing.T) {
	g := testGraph(t, 2)
	res := runScenario(t, CR86{}, 2,
		map[string]except.ID{"T1": "e1"}, g,
		time.Millisecond, 0, 0)
	checkAgreement(t, res, 2, "e1")
	if res.metrics.Get("msg.Relay") != 0 {
		t.Fatalf("relays with N=2: %d", res.metrics.Get("msg.Relay"))
	}
}

func TestR96Counts(t *testing.T) {
	for n := 2; n <= 5; n++ {
		n := n
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			g := testGraph(t, n)
			raisers := map[string]except.ID{"T1": "e1"}
			res := runScenario(t, R96{}, n, raisers, g,
				10*time.Millisecond, time.Millisecond, 0)
			checkAgreement(t, res, n, "e1")
			// Three all-to-all rounds: 3N(N−1) messages.
			if got, want := res.metrics.Get("msg.total"), int64(3*n*(n-1)); got != want {
				t.Errorf("messages = %d, want %d\n%s", got, want, res.metrics)
			}
			// Every thread resolves.
			if res.resolveCalls != int64(n) {
				t.Errorf("resolve calls = %d, want %d", res.resolveCalls, n)
			}
		})
	}
}

func TestProtocolsAgreeProperty(t *testing.T) {
	protos := []Protocol{Coordinated{}, CR86{}, R96{}}
	g := testGraph(t, 5)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4) // 2..5 threads
		raiserCount := 1 + rng.Intn(n)
		perm := rng.Perm(n)
		raisers := make(map[string]except.ID)
		var ids []except.ID
		for i := 0; i < raiserCount; i++ {
			tid := fmt.Sprintf("T%d", perm[i]+1)
			eid := except.ID(fmt.Sprintf("e%d", rng.Intn(5)+1))
			raisers[tid] = eid
			ids = append(ids, eid)
		}
		want, err := g.Resolve(ids...)
		if err != nil {
			return false
		}
		for _, proto := range protos {
			res := runScenario(t, proto, n, raisers, g,
				time.Duration(rng.Intn(10)+1)*time.Millisecond,
				time.Duration(rng.Intn(3))*time.Millisecond, 0)
			if len(res.outcomes) != n {
				return false
			}
			for _, out := range res.outcomes {
				if out.Resolved != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatedLatencySensitivity(t *testing.T) {
	// Virtual elapsed time must grow linearly with Tmmax: the all-raise
	// critical path is Exception (1 hop) + Commit (1 hop).
	g := testGraph(t, 3)
	raisers := map[string]except.ID{"T1": "e1", "T2": "e2", "T3": "e3"}
	var prev time.Duration
	for i, lat := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond} {
		res := runScenario(t, Coordinated{}, 3, raisers, g, lat, 0, 0)
		if i > 0 && res.elapsed-prev != 2*100*time.Millisecond {
			t.Fatalf("elapsed step = %v, want 200ms (2 hops)", res.elapsed-prev)
		}
		prev = res.elapsed
	}
}

func TestResolveCostOnCriticalPath(t *testing.T) {
	// Coordinated pays Treso once; CR86 pays it on every relay plus the
	// verification, so its elapsed time must grow ~3x faster at N=3.
	g := testGraph(t, 3)
	raisers := map[string]except.ID{"T1": "e1", "T2": "e2", "T3": "e3"}
	const lat = 10 * time.Millisecond
	tresLo, tresHi := 100*time.Millisecond, 300*time.Millisecond

	slope := func(p Protocol) time.Duration {
		lo := runScenario(t, p, 3, raisers, g, lat, time.Millisecond, tresLo)
		hi := runScenario(t, p, 3, raisers, g, lat, time.Millisecond, tresHi)
		return hi.elapsed - lo.elapsed
	}
	ours, cr := slope(Coordinated{}), slope(CR86{})
	if ours != tresHi-tresLo {
		t.Fatalf("coordinated Treso slope = %v, want %v", ours, tresHi-tresLo)
	}
	if cr < 2*ours {
		t.Fatalf("cr86 Treso slope = %v, want at least 2x coordinated (%v)", cr, ours)
	}
}

// TestReleaseScrubsCoordinatedInstance: a released coordinated instance
// goes back to the pool with no field of its round left — config, state,
// LE list or decision — and Release leaves instances it does not recycle
// alone.
func TestReleaseScrubsCoordinatedInstance(t *testing.T) {
	inst := Coordinated{}.NewInstance(Config{
		Action: "A#1", Self: "T2", Peers: []string{"T1", "T2"}, Round: 1,
		Send:    func(string, protocol.Message) {},
		Resolve: func([]except.Raised) except.ID { return "e1" },
	})
	inst.Raise(except.Raised{ID: "e1", Origin: "T2"})
	if _, err := inst.Deliver("T1", protocol.Message{Kind: protocol.KindSuspended, Action: "A#1", From: "T1", Round: 1}); err != nil {
		t.Fatal(err)
	}
	if inst.State() != StateExceptional {
		t.Fatalf("state %v before release, want X", inst.State())
	}
	Release(inst)
	if v := reflect.ValueOf(inst).Elem(); !v.IsZero() {
		t.Errorf("released instance keeps its round: %+v", v.Interface())
	}
	Release(R96{}.NewInstance(Config{Action: "A#1", Self: "T1", Peers: []string{"T1"},
		Send: func(string, protocol.Message) {}, Resolve: func([]except.Raised) except.ID { return "e1" }}))
}

func TestValidateRejectsWrongTags(t *testing.T) {
	inst := Coordinated{}.NewInstance(Config{
		Action: "A#1", Self: "T1", Peers: []string{"T1", "T2"}, Round: 1,
		Send:    func(string, protocol.Message) {},
		Resolve: func([]except.Raised) except.ID { return "x" },
	})
	if _, err := inst.Deliver("T2", wrongRoundMsg()); err == nil {
		t.Fatal("wrong round accepted")
	}
	if _, err := inst.Deliver("T2", wrongActionMsg()); err == nil {
		t.Fatal("wrong action accepted")
	}
	if _, err := inst.Deliver("T2", unexpectedMsg()); err == nil {
		t.Fatal("unexpected type accepted")
	}
}

// TestNotPeerRejected delivers, to every resolver, messages from (or, for a
// CR-86 relay, about) a thread outside the round's Peers while a real
// participant (T2) is still unaccounted for. Each must be refused with
// ErrNotPeer and must not move the round: no reply is sent and nothing is
// decided. Unchecked, a stranger would take an LE-list slot, so the list
// would look complete with T2 missing and the round resolve without it.
func TestNotPeerRejected(t *testing.T) {
	const stranger = "T0" // orders before Self, so it never blocks Self's resolve
	exc := func(from string) protocol.Message {
		return protocol.Message{Kind: protocol.KindException, Action: "A#1", From: from, Exc: except.Raised{ID: "e1", Origin: from}}
	}
	susp := protocol.Message{Kind: protocol.KindSuspended, Action: "A#1", From: stranger}
	for _, tc := range []struct {
		proto Protocol
		from  string
		msg   protocol.Message
	}{
		{Coordinated{}, stranger, exc(stranger)},
		{Coordinated{}, stranger, susp},
		{Coordinated{}, stranger, protocol.Message{Kind: protocol.KindCommit, Action: "A#1", From: stranger, Resolved: "e1"}},
		{CoordinatedGroup{K: 2}, stranger, exc(stranger)},
		{CoordinatedGroup{K: 2}, stranger, susp},
		{CR86{}, stranger, exc(stranger)},
		{CR86{}, stranger, susp},
		{CR86{}, stranger, protocol.Message{Kind: protocol.KindRelay, Action: "A#1", From: stranger, Exc: except.Raised{ID: "e1", Origin: "T1"}}},
		{CR86{}, "T1", protocol.Message{Kind: protocol.KindRelay, Action: "A#1", From: "T1", Exc: except.Raised{ID: "e1", Origin: stranger}}},
		{CR86{}, stranger, protocol.Message{Kind: protocol.KindPropose, Action: "A#1", From: stranger, Resolved: "e1"}},
		{R96{}, stranger, exc(stranger)},
		{R96{}, stranger, susp},
		{R96{}, stranger, protocol.Message{Kind: protocol.KindPropose, Action: "A#1", From: stranger, Resolved: "e1"}},
		{R96{}, stranger, protocol.Message{Kind: protocol.KindAck, Action: "A#1", From: stranger}},
	} {
		t.Run(fmt.Sprintf("%s/protocol.%s/from-%s", tc.proto.Name(), tc.msg.Kind, tc.from), func(t *testing.T) {
			sent := 0
			inst := tc.proto.NewInstance(Config{
				Action: "A#1", Self: "T3", Peers: []string{"T1", "T2", "T3"},
				Send:    func(string, protocol.Message) { sent++ },
				Resolve: func([]except.Raised) except.ID { return "e1" },
			})
			inst.Raise(except.Raised{ID: "e1", Origin: "T3"})
			if _, err := inst.Deliver("T1", exc("T1")); err != nil {
				t.Fatal(err)
			}
			before := sent
			out, err := inst.Deliver(tc.from, tc.msg)
			if !errors.Is(err, ErrNotPeer) {
				t.Fatalf("Deliver = %v, want ErrNotPeer", err)
			}
			if out.Decided || sent != before {
				t.Fatalf("the refused message moved the round: decided=%v, %d messages sent", out.Decided, sent-before)
			}
			if _, err := inst.Deliver("T2", protocol.Message{Kind: protocol.KindSuspended, Action: "A#1", From: "T2"}); err != nil {
				t.Fatalf("T2's suspension after the refusal: %v", err)
			}
		})
	}
}

func TestThreadOrdering(t *testing.T) {
	ids := []string{"T10", "T2", "T1", "T3"}
	SortThreads(ids)
	want := []string{"T1", "T2", "T3", "T10"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order = %v", ids)
		}
	}
	if !ThreadLess("T2", "T10") {
		t.Fatal("T2 must precede T10")
	}
}
