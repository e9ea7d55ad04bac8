package wal

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindJoin, Wall: 100, Thread: "T1", Action: "chaos#1", Role: "r1"},
		{Kind: KindRaise, Wall: 200, Thread: "T1", Action: "chaos#1", Round: 0, Exc: "e1"},
		{Kind: KindVote, Wall: 300, Thread: "T1", Action: "chaos#1", Round: 1, Exc: "e2"},
		{Kind: KindOutcome, Wall: 400, Thread: "T1", Action: "chaos#1", Outcome: "signalled:e2"},
		{Kind: KindInstanceStart, Wall: 500, Tag: "mix-3", WorkKind: "storm", Roles: 3},
		{Kind: KindInstanceDone, Wall: 600, Tag: "mix-3"},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	for _, r := range recs {
		buf = AppendFrame(buf, r)
	}
	got, used, err := DecodeAll(buf)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if used != len(buf) {
		t.Fatalf("DecodeAll consumed %d of %d bytes", used, len(buf))
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
	// AppendFrame writes the length prefix from recordLen before the body;
	// it must agree with the body's encoding at every varint width.
	edges := append(recs, pinnedRecords()...)
	edges = append(edges,
		Record{Kind: KindRaise, Wall: -1, Round: -64, Roles: 1 << 62},
		Record{Kind: KindVote, Wall: -1 << 63, Round: 63, Exc: string(make([]byte, 200))},
		Record{Kind: KindSnapshot, Wall: 1<<63 - 1, Blob: make([]byte, 1<<14)},
	)
	for _, r := range edges {
		if n, want := recordLen(r), len(appendRecord(nil, r)); n != want {
			t.Fatalf("recordLen(%+v) = %d, want %d", r.Kind, n, want)
		}
	}
}

func TestDecodeTruncatedTail(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	ends := []int{0} // ends[i] is the byte length of the first i records
	for _, r := range recs {
		buf = AppendFrame(buf, r)
		ends = append(ends, len(buf))
	}
	// Any strict prefix decodes to a prefix of the records, never an error:
	// a crash mid-append must not poison replay.
	for cut := 0; cut < len(buf); cut++ {
		got, used, err := DecodeAll(buf[:cut])
		if err != nil {
			t.Fatalf("cut=%d: DecodeAll: %v", cut, err)
		}
		if len(got) > len(recs) {
			t.Fatalf("cut=%d: decoded %d records from a prefix of %d", cut, len(got), len(recs))
		}
		if used != ends[len(got)] {
			t.Fatalf("cut=%d: DecodeAll consumed %d bytes for %d records, want %d", cut, used, len(got), ends[len(got)])
		}
		for i, r := range got {
			if !reflect.DeepEqual(r, recs[i]) {
				t.Fatalf("cut=%d: record %d mismatch", cut, i)
			}
		}
	}
}

func TestStateReplay(t *testing.T) {
	st, err := Replay(sampleRecords())
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	as := st.Actions[ActionKey{Thread: "T1", Action: "chaos#1"}]
	if as.Role != "r1" || as.JoinedWall != 100 || as.Raises != 1 || as.Votes != 1 ||
		as.LastRound != 1 || as.LastExc != "e2" || as.Outcome != "signalled:e2" {
		t.Fatalf("replayed action state %+v", as)
	}
	if got := st.InFlight(); len(got) != 0 {
		t.Fatalf("InFlight = %v, want none (outcome recorded)", got)
	}
	is := st.Instances["mix-3"]
	if is.Kind != "storm" || is.Roles != 3 || !is.Done {
		t.Fatalf("replayed instance state %+v", is)
	}
	if got := st.OpenInstances(); len(got) != 0 {
		t.Fatalf("OpenInstances = %v, want none", got)
	}
}

func TestStateSnapshotRoundTrip(t *testing.T) {
	st, err := Replay(sampleRecords()[:5]) // leave the instance open
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	blob := EncodeState(st)
	back, err := DecodeState(blob)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("snapshot round trip mismatch:\n got %+v\nwant %+v", back, st)
	}
	if got := back.OpenInstances(); len(got) != 1 || got[0] != "mix-3" {
		t.Fatalf("OpenInstances = %v, want [mix-3]", got)
	}
}

func TestFileReopenReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := Open(path, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := w.AppendInstanceStart("mix-1", "quiet", 2); err != nil {
		t.Fatalf("AppendInstanceStart: %v", err)
	}
	w.RecordJoin("n1/L1", "mix-1!quiet#1", "r0")
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, err := Open(path, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	st := w2.State()
	if got := st.OpenInstances(); len(got) != 1 || got[0] != "mix-1" {
		t.Fatalf("OpenInstances after reopen = %v, want [mix-1]", got)
	}
	inflight := st.InFlight()
	if len(inflight) != 1 || inflight[0] != (ActionKey{Thread: "n1/L1", Action: "mix-1!quiet#1"}) {
		t.Fatalf("InFlight after reopen = %v", inflight)
	}
}

func TestFileTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := Open(path, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := w.AppendInstanceStart("mix-1", "quiet", 2); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: a garbage partial record at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	if _, err := f.Write([]byte{0xff, 0x07}); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	f.Close()

	w2, err := Open(path, 0)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if got := w2.State().OpenInstances(); len(got) != 1 || got[0] != "mix-1" {
		t.Fatalf("OpenInstances = %v, want [mix-1]", got)
	}
	// The torn bytes were truncated away; a fresh append then a reopen
	// must replay cleanly.
	if err := w2.AppendInstanceDone("mix-1"); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	w2.Close()
	w3, err := Open(path, 0)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer w3.Close()
	if got := w3.State().OpenInstances(); len(got) != 0 {
		t.Fatalf("OpenInstances = %v, want none", got)
	}
}

func TestFileSnapshotCompactionBoundsSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	const every = 16
	w, err := Open(path, every)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Many records for ONE action: compaction folds them into a bounded
	// snapshot regardless of append volume.
	for i := 0; i < 10*every; i++ {
		w.RecordRaise("T1", "a#1", i%3, "e1")
	}
	w.RecordJoin("T1", "a#1", "r1")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	// A raise record is ~25 bytes; without compaction the file would be
	// >4000 bytes. With it, at most `every` records plus one snapshot.
	if info.Size() > 2048 {
		t.Fatalf("wal grew to %d bytes despite snapshotEvery=%d", info.Size(), every)
	}
	w.Close()

	w2, err := Open(path, every)
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer w2.Close()
	as := w2.State().Actions[ActionKey{Thread: "T1", Action: "a#1"}]
	if as.Raises != 10*every || as.Role != "r1" {
		t.Fatalf("state after compaction: %+v", as)
	}
}

func TestFileConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := Open(path, 64)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := string(rune('A' + g))
			for i := 0; i < each; i++ {
				w.RecordVote(th, "a#1", i, "")
			}
		}(g)
	}
	wg.Wait()
	w.Close()

	w2, err := Open(path, 64)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	total := 0
	for _, as := range w2.State().Actions {
		total += as.Votes
	}
	if total != workers*each {
		t.Fatalf("replayed %d votes, want %d", total, workers*each)
	}
}

// TestFileSyncOverlappingCompaction: a group-commit fsync that overlaps a
// compaction runs on the file the compaction has just closed. The snapshot
// already made those records durable, so no appender may see an error.
func TestFileSyncOverlappingCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := Open(path, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	const appenders, pairs = 16, 300
	var (
		mu     sync.Mutex
		failed int
		first  error
		wg     sync.WaitGroup
	)
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				tag := "g" + strconv.Itoa(g) + "-" + strconv.Itoa(i)
				for _, err := range []error{
					w.AppendInstanceStart(tag, "commit", 3),
					w.AppendInstanceDone(tag),
				} {
					if err != nil {
						mu.Lock()
						if failed++; first == nil {
							first = err
						}
						mu.Unlock()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if failed > 0 {
		t.Fatalf("%d appends failed, first: %v", failed, first)
	}
}

// TestFileStateHoldsOnlyLive pins the bounded state: concluded actions and
// done instances leave a File's state as their conclusion lands, so the
// state, the snapshot and the file stay O(in-flight) however long the
// history.
func TestFileStateHoldsOnlyLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	const every = 16
	w, err := Open(path, every)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	threads := []string{"T1", "T2", "T3"}
	for i := 0; i < 10*every; i++ {
		th := threads[i%len(threads)]
		a := fmt.Sprintf("a#%d", i)
		w.RecordJoin(th, a, "r1")
		w.RecordVote(th, a, 0, "")
		w.RecordOutcome(th, a, "ok")
	}
	if err := w.AppendInstanceStart("done-tag", "quiet", 2); err != nil {
		t.Fatalf("AppendInstanceStart: %v", err)
	}
	if err := w.AppendInstanceDone("done-tag"); err != nil {
		t.Fatalf("AppendInstanceDone: %v", err)
	}
	if err := w.AppendInstanceStart("open-tag", "quiet", 2); err != nil {
		t.Fatalf("AppendInstanceStart: %v", err)
	}
	w.RecordJoin("T1", "live#1", "r1")

	live := ActionKey{Thread: "T1", Action: "live#1"}
	st := w.State()
	if len(st.Actions) != 1 || len(st.Instances) != 1 {
		t.Fatalf("state holds %d actions and %d instances, want 1 and 1", len(st.Actions), len(st.Instances))
	}
	if got := st.InFlight(); len(got) != 1 || got[0] != live {
		t.Fatalf("InFlight = %v, want [%v]", got, live)
	}
	if got := st.OpenInstances(); len(got) != 1 || got[0] != "open-tag" {
		t.Fatalf("OpenInstances = %v, want [open-tag]", got)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	// At most one snapshot of live state plus `every` records of ~30
	// bytes; keeping the 480 concluded actions would cost over 10 KB.
	if info.Size() > 2048 {
		t.Fatalf("wal grew to %d bytes with one action in flight", info.Size())
	}
	w.Close()

	w2, err := Open(path, every)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	back := w2.State()
	if !reflect.DeepEqual(back.InFlight(), st.InFlight()) || !reflect.DeepEqual(back.OpenInstances(), st.OpenInstances()) {
		t.Fatalf("after reopen: InFlight %v, OpenInstances %v; want %v, %v",
			back.InFlight(), back.OpenInstances(), st.InFlight(), st.OpenInstances())
	}
}

// writeConcludedSnapshot writes a log whose one snapshot record carries n
// concluded actions and a done instance, plus one live action and one
// open instance, in the on-disk format of a log that kept its history.
func writeConcludedSnapshot(t testing.TB, path string, n int) {
	t.Helper()
	st := NewState()
	for i := 0; i < n; i++ {
		st.Actions[ActionKey{Thread: "old", Action: fmt.Sprintf("done#%d", i)}] = ActionState{
			Role: "r1", JoinedWall: 1, Votes: 1, Outcome: "ok", OutcomeWall: 2,
		}
	}
	st.Actions[ActionKey{Thread: "old", Action: "live#1"}] = ActionState{Role: "r1", JoinedWall: 3}
	st.Instances["done-tag"] = InstanceState{Kind: "quiet", Roles: 2, StartedWall: 1, Done: true}
	st.Instances["open-tag"] = InstanceState{Kind: "quiet", Roles: 2, StartedWall: 3}
	frame := AppendFrame(nil, Record{Kind: KindSnapshot, Wall: 4, Blob: EncodeState(st)})
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
}

func TestOpenPrunesConcludedSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	writeConcludedSnapshot(t, path, 100)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	const every = 8
	w, err := Open(path, every)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	st := w.State()
	want := State{
		Actions:   map[ActionKey]ActionState{{Thread: "old", Action: "live#1"}: {Role: "r1", JoinedWall: 3}},
		Instances: map[string]InstanceState{"open-tag": {Kind: "quiet", Roles: 2, StartedWall: 3}},
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("state after Open holds %d actions and %d instances, want only the live ones: %+v",
			len(st.Actions), len(st.Instances), want)
	}
	// The next compaction rewrites the log from the pruned state.
	for i := 0; i < every; i++ {
		w.RecordRaise("old", "live#1", i, "e1")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if after.Size() >= before.Size()/4 {
		t.Fatalf("log is %d bytes after compaction, was %d with concluded entries", after.Size(), before.Size())
	}
}

// parentFormatLog is a log as a writer that still recorded exit votes
// left it: a snapshot holding one open frame that had voted, then a
// 2-role action that raised, voted and concluded, and a frame that joined
// and voted but has no outcome. withVotes false drops every vote record
// and the snapshot's vote count, which is the same log as written today.
func parentFormatLog(withVotes bool) []Record {
	open := ActionState{Role: "r1", JoinedWall: 50}
	if withVotes {
		open.Votes = 1
	}
	snap := NewState()
	snap.Actions[ActionKey{Thread: "T1", Action: "old#1"}] = open
	recs := []Record{
		{Kind: KindSnapshot, Wall: 60, Blob: EncodeState(snap)},
		{Kind: KindInstanceStart, Wall: 90, Tag: "mix-1", WorkKind: "signal", Roles: 2},
		{Kind: KindJoin, Wall: 100, Thread: "T1", Action: "mix-1!signal#1", Role: "a"},
		{Kind: KindJoin, Wall: 105, Thread: "T2", Action: "mix-1!signal#1", Role: "b"},
		{Kind: KindRaise, Wall: 110, Thread: "T1", Action: "mix-1!signal#1", Round: 0, Exc: "overload"},
		{Kind: KindVote, Wall: 120, Thread: "T1", Action: "mix-1!signal#1", Round: 1, Exc: "overload"},
		{Kind: KindVote, Wall: 121, Thread: "T2", Action: "mix-1!signal#1", Round: 1, Exc: "overload"},
		{Kind: KindOutcome, Wall: 130, Thread: "T1", Action: "mix-1!signal#1", Outcome: "signalled:overload"},
		{Kind: KindOutcome, Wall: 131, Thread: "T2", Action: "mix-1!signal#1", Outcome: "signalled:overload"},
		{Kind: KindJoin, Wall: 200, Thread: "T3", Action: "mix-2!commit#1", Role: "c"},
		{Kind: KindVote, Wall: 230, Thread: "T3", Action: "mix-2!commit#1", Round: 0, Exc: ""},
	}
	if withVotes {
		return recs
	}
	var out []Record
	for _, r := range recs {
		if r.Kind != KindVote {
			out = append(out, r)
		}
	}
	return out
}

// TestParentFormatLogSameDecisions: a log that holds exit votes replays,
// through Open (the cluster's File) and through Replay (the chaos
// engine's Memory), to the same in-flight frames, join times, raise counts
// and open instances as the same log without them — the fields the §3.4
// recovery rules read — so a log written before votes stopped being
// recorded still yields the same recovery decisions.
func TestParentFormatLogSameDecisions(t *testing.T) {
	type decision struct {
		InFlight  []ActionKey
		Joined    map[ActionKey]int64
		Raises    map[ActionKey]int
		Outcomes  map[ActionKey]string
		Instances []string
	}
	decide := func(st State) decision {
		d := decision{
			InFlight:  st.InFlight(),
			Joined:    map[ActionKey]int64{},
			Raises:    map[ActionKey]int{},
			Outcomes:  map[ActionKey]string{},
			Instances: st.OpenInstances(),
		}
		for k, as := range st.Actions {
			d.Joined[k], d.Raises[k], d.Outcomes[k] = as.JoinedWall, as.Raises, as.Outcome
		}
		return d
	}
	open := func(recs []Record) State {
		path := filepath.Join(t.TempDir(), "node.wal")
		var buf []byte
		for _, r := range recs {
			buf = AppendFrame(buf, r)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatalf("write log: %v", err)
		}
		w, err := Open(path, 0)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer w.Close()
		return w.State()
	}
	replay := func(recs []Record) State {
		st, err := Replay(recs)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		return st
	}
	old, now := parentFormatLog(true), parentFormatLog(false)
	for _, c := range []struct {
		name string
		load func([]Record) State
	}{{"Open", open}, {"Replay", replay}} {
		got, want := decide(c.load(old)), decide(c.load(now))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: log with votes decides %+v, without %+v", c.name, got, want)
		}
		wantInFlight := []ActionKey{{Thread: "T1", Action: "old#1"}, {Thread: "T3", Action: "mix-2!commit#1"}}
		if !reflect.DeepEqual(got.InFlight, wantInFlight) {
			t.Fatalf("%s: InFlight = %v, want %v", c.name, got.InFlight, wantInFlight)
		}
		if j := got.Joined[ActionKey{Thread: "T3", Action: "mix-2!commit#1"}]; j != 200 {
			t.Fatalf("%s: voted frame's JoinedWall = %d, want its join's 200", c.name, j)
		}
	}
}

// BenchmarkFileAppend measures one role's durable appends in a commit
// action, join → outcome, from 16 concurrent appenders against a log that
// already holds 0 or 10k concluded actions. One op is one such role.
func BenchmarkFileAppend(b *testing.B) {
	for _, concluded := range []int{0, 10000} {
		b.Run(fmt.Sprintf("concluded=%d", concluded), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "node.wal")
			if concluded > 0 {
				writeConcludedSnapshot(b, path, concluded)
			}
			w, err := Open(path, 0)
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			defer w.Close()
			const appenders = 16
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for g := 0; g < appenders; g++ {
				wg.Add(1)
				go func(th string) {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						a := "a#" + strconv.FormatInt(i, 10)
						w.RecordJoin(th, a, "r1")
						w.RecordOutcome(th, a, "ok")
					}
				}(fmt.Sprintf("T%d", g))
			}
			wg.Wait()
			b.StopTimer()
			w.mu.Lock()
			records := w.seq
			w.mu.Unlock()
			w.sm.Lock()
			fsyncs := w.fsyncs
			w.sm.Unlock()
			b.ReportMetric(float64(records)/float64(max(fsyncs, 1)), "records/fsync")
		})
	}
}

// TestFileBatchesStraddleCompactions: 16 appenders, each logging joins,
// outcomes and raises for its own actions, against a log that compacts
// every 7 records, so flush batches keep overlapping compactions. Every
// append succeeds, and after Close and Open the state is exactly what
// the appended records say: concluded actions gone, the others in flight
// with their one raise.
func TestFileBatchesStraddleCompactions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := Open(path, 7)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const appenders, actions = 16, 250 // 500 records each
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed int
		first  error
	)
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(th string) {
			defer wg.Done()
			for i := 0; i < actions; i++ {
				a := "a#" + strconv.Itoa(i)
				errs := []error{w.Append(Record{Kind: KindJoin, Thread: th, Action: a, Role: "r1"})}
				if i%5 == 0 {
					errs = append(errs, w.Append(Record{Kind: KindRaise, Thread: th, Action: a, Round: 1, Exc: "e1"}))
				} else {
					errs = append(errs, w.Append(Record{Kind: KindOutcome, Thread: th, Action: a, Outcome: "ok"}))
				}
				for _, err := range errs {
					if err != nil {
						mu.Lock()
						if failed++; first == nil {
							first = err
						}
						mu.Unlock()
					}
				}
			}
		}("T" + strconv.Itoa(g))
	}
	wg.Wait()
	if failed > 0 {
		t.Fatalf("%d appends failed, first: %v", failed, first)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2, err := Open(path, 7)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	st := w2.State()
	if len(st.Actions) != appenders*actions/5 {
		t.Fatalf("reopened state holds %d actions, want %d", len(st.Actions), appenders*actions/5)
	}
	for g := 0; g < appenders; g++ {
		for i := 0; i < actions; i += 5 {
			k := ActionKey{Thread: "T" + strconv.Itoa(g), Action: "a#" + strconv.Itoa(i)}
			if as, ok := st.Actions[k]; !ok || as.Role != "r1" || as.Raises != 1 || as.LastRound != 1 {
				t.Fatalf("%v after reopen: %+v (present %v)", k, as, ok)
			}
		}
	}
}

// TestFileCloseRacingAppenders: Close runs while appenders are blocked on
// a flush. Every appender returns, and every join whose Append returned
// nil is in flight in the reopened log.
func TestFileCloseRacingAppenders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := Open(path, 64)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const appenders = 16
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		durable []ActionKey
		started = make(chan struct{}, appenders)
	)
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(th string) {
			defer wg.Done()
			for i := 0; ; i++ {
				k := ActionKey{Thread: th, Action: "a#" + strconv.Itoa(i)}
				if err := w.Append(Record{Kind: KindJoin, Thread: k.Thread, Action: k.Action, Role: "r1"}); err != nil {
					return
				}
				mu.Lock()
				durable = append(durable, k)
				mu.Unlock()
				if i == 4 {
					started <- struct{}{}
				}
			}
		}("T" + strconv.Itoa(g))
	}
	for g := 0; g < appenders; g++ {
		<-started
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("appenders still blocked 30s after Close")
	}
	if err := w.Append(Record{Kind: KindJoin, Thread: "late", Action: "a#0"}); err == nil {
		t.Fatal("Append after Close returned nil")
	}
	w2, err := Open(path, 64)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	st := w2.State()
	for _, k := range durable {
		if _, ok := st.Actions[k]; !ok {
			t.Fatalf("%v: Append returned nil but the reopened log lacks it (%d durable, %d replayed)", k, len(durable), len(st.Actions))
		}
	}
}

// TestFileFlushErrorSticksUntilCompaction: once a flush fails, appends
// report the failure even after the file writes again, because the log
// may hold a torn batch; the next compaction rewrites the log from the
// live state and appends succeed again, with every record replayable.
func TestFileFlushErrorSticksUntilCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	const every = 8
	w, err := Open(path, every)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	join := func(i int) error {
		return w.Append(Record{Kind: KindJoin, Thread: "T1", Action: "a#" + strconv.Itoa(i), Role: "r1"})
	}
	if err := join(1); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	// A read-only descriptor in place of the log: the next flush's write
	// fails.
	readOnly, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer readOnly.Close()
	w.mu.Lock()
	good := w.f
	w.f = readOnly
	w.mu.Unlock()
	if err := join(2); err == nil {
		t.Fatal("append 2 through a read-only descriptor returned nil")
	}
	w.mu.Lock()
	w.f = good
	w.mu.Unlock()
	for i := 3; i < every; i++ {
		if err := join(i); err == nil {
			t.Fatalf("append %d after a failed flush returned nil before any compaction", i)
		}
	}
	for i := every; i <= every+2; i++ { // record 8 compacts
		if err := join(i); err != nil {
			t.Fatalf("append %d after compaction: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2, err := Open(path, every)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if got := len(w2.State().InFlight()); got != every+2 {
		t.Fatalf("reopened log holds %d joins, want %d", got, every+2)
	}
}

// TestFileAppendAllocs: at steady state an Append encodes into the
// reused batch buffer and flushes it without allocating.
func TestFileAppendAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	const runs = 200
	w, err := Open(path, 4*(runs+1))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	action := func() {
		w.RecordJoin("n1/T1", "mix-1!commit#1", "r1")
		w.RecordVote("n1/T1", "mix-1!commit#1", 0, "")
		w.RecordOutcome("n1/T1", "mix-1!commit#1", "ok")
	}
	if n := testing.AllocsPerRun(runs, action); n != 0 {
		t.Fatalf("one join, vote and outcome allocate %.0f times, want 0", n)
	}
}

type stubClock struct{}

func (stubClock) Now() time.Duration { return 42 * time.Millisecond }

func TestMemoryStateFiltersByOutcome(t *testing.T) {
	m := NewMemory(stubClock{})
	m.RecordJoin("T1", "chaos#1", "r1")
	m.RecordJoin("T2", "chaos#1", "r2")
	m.RecordOutcome("T2", "chaos#1", "ok")
	st := m.State()
	inflight := st.InFlight()
	if len(inflight) != 1 || inflight[0].Thread != "T1" {
		t.Fatalf("InFlight = %v, want just T1", inflight)
	}
	if got := st.Actions[ActionKey{Thread: "T2", Action: "chaos#1"}].Outcome; got != "ok" {
		t.Fatalf("T2 outcome = %q, want ok", got)
	}
}

// pinnedRecords is the fixed record sequence TestWALBytesPinned writes: a
// snapshot whose frame needs a two-byte length prefix, then one record of
// every other kind, with wall-clock-sized timestamps.
func pinnedRecords() []Record {
	st := NewState()
	for i := 0; i < 4; i++ {
		st.Actions[ActionKey{Thread: "n1/T" + strconv.Itoa(i), Action: "mix-7!commit#" + strconv.Itoa(i)}] = ActionState{
			Role: "r" + strconv.Itoa(i), JoinedWall: 1_760_000_000_000_000_000 + int64(i), Raises: i, Votes: 1, LastRound: i, LastExc: "e1",
		}
	}
	st.Instances["mix-7"] = InstanceState{Kind: "commit", Roles: 3, StartedWall: 1_760_000_000_000_000_000}
	const wall = 1_760_000_000_123_456_789
	return []Record{
		{Kind: KindSnapshot, Wall: wall, Blob: EncodeState(st)},
		{Kind: KindJoin, Wall: wall + 1, Thread: "n1/T1", Action: "mix-8!signal#1", Role: "r1"},
		{Kind: KindRaise, Wall: wall + 2, Thread: "n1/T1", Action: "mix-8!signal#1", Round: 0, Exc: "overload"},
		{Kind: KindVote, Wall: wall + 3, Thread: "n1/T1", Action: "mix-8!signal#1", Round: 1, Exc: "overload"},
		{Kind: KindOutcome, Wall: wall + 4, Thread: "n1/T1", Action: "mix-8!signal#1", Outcome: "signalled:overload"},
		{Kind: KindInstanceStart, Wall: wall + 5, Tag: "mix-8", WorkKind: "signal", Roles: 3},
		{Kind: KindInstanceDone, Wall: wall + 6, Tag: "mix-8"},
	}
}

// pinnedWALHex is the on-disk encoding of pinnedRecords. Replay of every
// log ever written depends on it; a change here is a format change.
const pinnedWALHex = "" +
	"d30107aab4dec09babe3ec30000000000000000000be0108056e312f54300e6d" +
	"69782d3721636f6d6d69742330027230808080cb9aabe3ec3000020002653100" +
	"00056e312f54310e6d69782d3721636f6d6d69742331027231828080cb9aabe3" +
	"ec300202020265310000056e312f54320e6d69782d3721636f6d6d6974233202" +
	"7232848080cb9aabe3ec300402040265310000056e312f54330e6d69782d3721" +
	"636f6d6d69742333027233868080cb9aabe3ec30060206026531000002056d69" +
	"782d3706636f6d6d697406808080cb9aabe3ec3000" +
	"2901acb4dec09babe3ec30056e312f54310e6d69782d38217369676e616c2331" +
	"02723100000000000000" +
	"2f02aeb4dec09babe3ec30056e312f54310e6d69782d38217369676e616c2331" +
	"0000086f7665726c6f61640000000000" +
	"2f03b0b4dec09babe3ec30056e312f54310e6d69782d38217369676e616c2331" +
	"0002086f7665726c6f61640000000000" +
	"3904b2b4dec09babe3ec30056e312f54310e6d69782d38217369676e616c2331" +
	"000000127369676e616c6c65643a6f7665726c6f616400000000" +
	"1f05b4b4dec09babe3ec30000000000000056d69782d38067369676e616c0600" +
	"1906b6b4dec09babe3ec30000000000000056d69782d38000000"

// TestWALBytesPinned pins the on-disk bytes: the pinned records appended
// one at a time through File, and the same records through AppendFrame,
// must both produce pinnedWALHex.
func TestWALBytesPinned(t *testing.T) {
	recs := pinnedRecords()
	path := filepath.Join(t.TempDir(), "node.wal")
	w, err := Open(path, 1000)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append %v: %v", r.Kind, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got := hex.EncodeToString(data); got != pinnedWALHex {
		t.Fatalf("File bytes changed:\n got %s\nwant %s", got, pinnedWALHex)
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendFrame(buf, r)
	}
	if got := hex.EncodeToString(buf); got != pinnedWALHex {
		t.Fatalf("AppendFrame bytes changed:\n got %s\nwant %s", got, pinnedWALHex)
	}
	back, used, err := DecodeAll(data)
	if err != nil || used != len(data) || !reflect.DeepEqual(back, recs) {
		t.Fatalf("DecodeAll: %d records, %d of %d bytes, err %v", len(back), used, len(data), err)
	}
}
