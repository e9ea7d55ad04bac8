package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"caaction"
	"caaction/internal/protocol"
	"caaction/internal/transport"
	"caaction/load"
)

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		maxQ   float64
		q      float64
		beyond int
		ok     bool
	}{
		{n: 1000, maxQ: 0.99, q: 0.99, beyond: 10, ok: true},
		{n: 999, maxQ: 0.99, q: 0.95, beyond: 49, ok: true},
		{n: 10000, maxQ: 0.999, q: 0.999, beyond: 10, ok: true},
		{n: 9999, maxQ: 0.999, q: 0.99, beyond: 99, ok: true},
		{n: 100, maxQ: 0.99, q: 0.9, beyond: 10, ok: true},
		{n: 20, maxQ: 0.99, q: 0.5, beyond: 10, ok: true},
		{n: 19, maxQ: 0.99, ok: false},
		{n: 0, maxQ: 0.99, ok: false},
	} {
		q, beyond, ok := tailQuantile(c.n, c.maxQ)
		if q != c.q || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailQuantile(%d, %g) = %g, %d, %v; want %g, %d, %v", c.n, c.maxQ, q, beyond, ok, c.q, c.beyond, c.ok)
		}
	}
}

func TestGroupSizeGivesEveryGroupEnoughSamples(t *testing.T) {
	for _, c := range []struct {
		counts []int
		need   int
		want   int
	}{
		{counts: []int{5, 5, 5, 5}, need: 5, want: 1},
		{counts: []int{9, 5, 1, 5}, need: 5, want: 2},
		{counts: []int{9, 9, 9, 1}, need: 11, want: 4}, // 3 does not divide 4
		{counts: []int{9, 1, 1, 1, 1, 9}, need: 5, want: 3},
		{counts: []int{1, 1, 1, 1}, need: 5, want: 4}, // the whole window
	} {
		if got := groupSize(c.counts, c.need); got != c.want {
			t.Errorf("groupSize(%v, %d) = %d, want %d", c.counts, c.need, got, c.want)
		}
	}
}

func TestQuietestPicksLeastStealInSliceOrder(t *testing.T) {
	steal := []float64{0.05, 0, 0.02, 0, 0.01, 0.09}
	if got, want := quietest(steal, 3), []int{1, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("quietest(%v, 3) = %v, want %v", steal, got, want)
	}
	if got, want := quietest(steal, 1), []int{1}; !slices.Equal(got, want) {
		t.Errorf("quietest(%v, 1) = %v, want %v (ties go to the earlier)", steal, got, want)
	}
	if got := quietest(steal, len(steal)); !slices.Equal(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("quietest of all = %v, want every index in order", got)
	}
}

func TestHistMergeAddsSamples(t *testing.T) {
	var a, b, all hist
	for i := int64(1); i <= 3000; i++ {
		all.add(i * 1000)
		if i%3 == 0 {
			a.add(i * 1000)
		} else {
			b.add(i * 1000)
		}
	}
	a.merge(&b)
	if a.len() != all.len() {
		t.Fatalf("merged %d samples, want %d", a.len(), all.len())
	}
	for _, q := range []float64{0.5, 0.99} {
		if got, want := a.at(q), all.at(q); got != want {
			t.Errorf("merged p%g = %g, want %g", q*100, got, want)
		}
	}
}

func TestHistQuantilesWithinOnePercent(t *testing.T) {
	var h, small hist
	xs := make([]int64, 0, 20000)
	for i := int64(1); i <= 20000; i++ {
		v := i * i % 7_000_003 // spread over 1 ns .. 7 ms, unsorted
		xs = append(xs, v)
		h.add(v)
		if i <= 500 {
			small.add(v)
		}
	}
	exact := slices.Sorted(slices.Values(xs))
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := float64(exact[rankOf(len(exact), q)-1])
		if got := h.at(q); math.Abs(got-want) > want/100 {
			t.Errorf("hist p%g = %.0f, exact %.0f", q*100, got, want)
		}
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<40 + 12345} {
		lo, hi := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("%d put in bucket [%g, %g)", v, lo, hi)
		}
	}
	if _, q, beyond := h.tail(); q != 0.99 || beyond != 200 {
		t.Errorf("tail of 20000: p%g with %d beyond, want p99 with 200", q*100, beyond)
	}
	// 500 samples leave 5 beyond p99, so the rule falls back to p95.
	if _, q, beyond := small.tail(); q != 0.95 || beyond != 25 {
		t.Errorf("tail of 500: p%g with %d beyond, want p95 with 25", q*100, beyond)
	}
}

func TestKindSequenceIsSeeded(t *testing.T) {
	a := genKinds(7, load.DefaultMix, 5000)
	b := genKinds(7, load.DefaultMix, 5000)
	if !slices.Equal(a, b) {
		t.Fatal("equal seeds gave different kind sequences")
	}
	if slices.Equal(a, genKinds(8, load.DefaultMix, 5000)) {
		t.Fatal("different seeds gave the same kind sequence")
	}
	var count [numKinds]int
	for _, k := range a {
		count[k]++
	}
	for k, n := range count {
		if n == 0 {
			t.Errorf("default mix never drew %s", kindNames[k])
		}
	}
	for _, k := range genKinds(7, load.Mix{Commit: 1}, 1000) {
		if k != kCommit {
			t.Fatalf("commit-only mix drew %s", kindNames[k])
		}
	}
}

// loopFor runs a short untraced closed loop of w over kinds on b.
func loopFor(t *testing.T, b *bench, w workload, kinds []uint8) *windowResult {
	t.Helper()
	res, err := b.closedLoop(w, kinds, 0, 300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFailedFracCountsStartErrorsAndWrongOutcomes(t *testing.T) {
	w := workload{name: "test", callers: 2, mix: load.DefaultMix, transport: "sim"}

	// Signal kinds run the commit action: their outcome "ok" is not
	// load.Expect("signal"), so each completed signal is a wrong outcome.
	b, err := openBench(w, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	b.acts[kSignal] = b.acts[kCommit]
	kinds := []uint8{kCommit, kSignal, kCommit, kCommit}
	res := loopFor(t, b, w, kinds)
	if err := b.close(); err != nil {
		t.Fatal(err)
	}
	if res.completed == 0 || res.wrong == 0 || res.startErrs != 0 {
		t.Fatalf("completed %d, wrong %d, start errors %d; want completions, some wrong, no start errors", res.completed, res.wrong, res.startErrs)
	}
	if res.attempted != res.completed {
		t.Errorf("attempted %d != completed %d with no start errors", res.attempted, res.completed)
	}
	if got := res.lat.all.len(); got != res.completed-res.wrong {
		t.Errorf("%d latencies for %d correct actions", got, res.completed-res.wrong)
	}
	if n := res.lat.exc.len(); n != 0 {
		t.Errorf("wrong outcomes contributed %d latencies", n)
	}
	if f := res.failedFrac(); f <= 0.1 || f >= 0.4 {
		t.Errorf("failed_frac = %g with a quarter of the kinds wrong", f)
	}

	// A closed System refuses every start: all attempts fail, none retried.
	b, err = openBench(w, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.close(); err != nil {
		t.Fatal(err)
	}
	res = loopFor(t, b, w, kinds)
	if res.startErrs == 0 || res.attempted != res.startErrs || res.completed != 0 {
		t.Fatalf("attempted %d, start errors %d, completed %d; want every attempt a start error", res.attempted, res.startErrs, res.completed)
	}
	if res.startByCause["other"] != res.startErrs {
		t.Errorf("start errors by cause %v", res.startByCause)
	}
	if f := res.failedFrac(); f != 1 {
		t.Errorf("failed_frac = %g, want 1", f)
	}
}

func TestStormAgreement(t *testing.T) {
	spec, _, err := load.Workload(load.KindStorm, roles, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Graph
	all := []caaction.Exception{"e1", "e2", "e3"}
	cover, err := g.Resolve(all...)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(resolved ...caaction.Exception) *instSlot {
		s := &instSlot{}
		for i, r := range resolved {
			s.dec[i] = decision{resolved: r, raised: all}
			s.handled[i].Store(1)
		}
		return s
	}
	if err := stormAgrees(g, fill(cover, cover, cover)); err != nil {
		t.Errorf("agreeing storm rejected: %v", err)
	}
	if err := stormAgrees(g, fill(cover, cover, "e1")); err == nil {
		t.Error("disagreeing storm accepted")
	}
	if err := stormAgrees(g, fill("e1", "e1", "e1")); err == nil {
		t.Error("storm resolved to an exception not covering the raised set accepted")
	}
	if err := stormAgrees(g, fill(cover, cover)); err == nil {
		t.Error("storm with a role that never handled accepted")
	}
}

// fakeEndpoint is an endpoint without optional methods; the option types
// below add one each, counting its calls.
type fakeEndpoint struct {
	caaction.Endpoint
	daemon, sink, reinject int
}

func (f *fakeEndpoint) Send(string, protocol.Message) error { return nil }

type markOpt struct{ n *int }

func (o markOpt) MarkDaemon() { *o.n++ }

type sinkOpt struct{ n *int }

func (o sinkOpt) SetSink(func(transport.Delivery)) { *o.n++ }

type reinjectOpt struct{ n *int }

func (o reinjectOpt) Reinject(transport.Delivery) bool { *o.n++; return true }

func TestWrapEndpointForwardsExactlyTheOptionalMethods(t *testing.T) {
	tr := newTracer(time.Now(), 16, 1)
	for mask := 0; mask < 8; mask++ {
		f := &fakeEndpoint{}
		m, s, r := markOpt{&f.daemon}, sinkOpt{&f.sink}, reinjectOpt{&f.reinject}
		var ep caaction.Endpoint
		switch mask {
		case 7:
			ep = struct {
				*fakeEndpoint
				markOpt
				sinkOpt
				reinjectOpt
			}{f, m, s, r}
		case 3:
			ep = struct {
				*fakeEndpoint
				markOpt
				sinkOpt
			}{f, m, s}
		case 5:
			ep = struct {
				*fakeEndpoint
				markOpt
				reinjectOpt
			}{f, m, r}
		case 6:
			ep = struct {
				*fakeEndpoint
				sinkOpt
				reinjectOpt
			}{f, s, r}
		case 1:
			ep = struct {
				*fakeEndpoint
				markOpt
			}{f, m}
		case 2:
			ep = struct {
				*fakeEndpoint
				sinkOpt
			}{f, s}
		case 4:
			ep = struct {
				*fakeEndpoint
				reinjectOpt
			}{f, r}
		default:
			ep = f
		}
		checkForwarding(t, ep, wrapEndpoint(ep, tr), f)
	}
}

func checkForwarding(t *testing.T, inner, wrapped caaction.Endpoint, f *fakeEndpoint) {
	t.Helper()
	_, innerD := inner.(daemonMarker)
	_, innerS := inner.(sinkSetter)
	_, innerR := inner.(reinjector)
	dm, d := wrapped.(daemonMarker)
	sk, s := wrapped.(sinkSetter)
	rj, r := wrapped.(reinjector)
	if d != innerD || s != innerS || r != innerR {
		t.Fatalf("wrapper implements MarkDaemon/SetSink/Reinject = %v/%v/%v, wrapped endpoint %v/%v/%v", d, s, r, innerD, innerS, innerR)
	}
	if f == nil {
		return
	}
	if d {
		dm.MarkDaemon()
	}
	if s {
		sk.SetSink(nil)
	}
	if r {
		rj.Reinject(transport.Delivery{})
	}
	if got := [3]int{f.daemon, f.sink, f.reinject}; got != [3]int{b2i(d), b2i(s), b2i(r)} {
		t.Errorf("forwarded calls MarkDaemon/SetSink/Reinject = %v", got)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The built-in transports' endpoints keep their delivery path when traced:
// the sim's sink (the mux's inline lane) and the tcp endpoint's re-injection.
func TestTracedTransportsKeepTheirEndpointMethods(t *testing.T) {
	tr := newTracer(time.Now(), 16, 1)
	for _, name := range []string{"sim", "tcp"} {
		inner, err := caaction.TransportByName(name)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := tracedTransport(name, tr)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := caaction.New(caaction.WithRealTime())
		if err != nil {
			t.Fatal(err)
		}
		env := caaction.TransportEnv{Clock: sys.Clock(), Metrics: sys.Metrics()}
		plain, err := inner(env)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := traced(env)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := plain.Endpoint("L1")
		if err != nil {
			t.Fatal(err)
		}
		we, err := wrapped.Endpoint("L1")
		if err != nil {
			t.Fatal(err)
		}
		checkForwarding(t, pe, we, nil)
		if _, ok := we.(sinkSetter); !ok {
			t.Errorf("%s: traced endpoint lost SetSink", name)
		}
		for _, c := range []interface{ Close() error }{pe, we, plain, wrapped, sys} {
			_ = c.Close()
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1, name: spAction, tag: 4},
		{start: 10, end: 30, parent: -1, name: spBody, tag: 4},
		{start: 20, end: 50, parent: -1, name: spBody, tag: 4},  // overlaps the first body
		{start: 90, end: 120, parent: -1, name: spExit, tag: 4}, // runs past the parent
		{start: 0, end: 10, parent: -1, name: spSend},           // shared endpoint: no parent
		{start: 5, end: 9, parent: 4, name: spExceptResolve},
	}
	linkParents(spans)
	for i := 1; i <= 3; i++ {
		if spans[i].parent != 0 {
			t.Errorf("span %d parent = %d, want the action span", i, spans[i].parent)
		}
	}
	if spans[4].parent != -1 {
		t.Errorf("untagged span got parent %d", spans[4].parent)
	}
	self := selfTimes(spans)
	if want := []int64{100 - 40 - 10, 20, 30, 30, 6, 4}; !slices.Equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestTagNum(t *testing.T) {
	for id, want := range map[string]uint32{"a17": 17, "a17!load-commit#1": 17, "a5!x#1/y#2": 5, "": 0, "b3": 0, "a": 0} {
		if got := tagNum(id); got != want {
			t.Errorf("tagNum(%q) = %d, want %d", id, got, want)
		}
	}
}
