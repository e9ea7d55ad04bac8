package harness

import (
	"fmt"
	"sync"
	"time"

	"caaction/internal/except"
	"caaction/internal/protocol"
	"caaction/internal/signal"
	"caaction/internal/simenv"
	"caaction/internal/transport"
)

// SigRow is one line of experiment E4: the §3.4 signalling algorithm's
// message cost per case.
type SigRow struct {
	Case     string
	N        int
	Messages int64
	Formula  int64
	Signal   except.ID // the coordinated outcome (µ/ƒ) or "own" for case 1
	Undos    int64
}

// RunSignalling measures the four signalling cases of §3.4 for each N.
func RunSignalling(ns []int) ([]SigRow, error) {
	var rows []SigRow
	for _, n := range ns {
		cases := []struct {
			name    string
			votes   func(i int) except.ID
			undoErr func(id string) error
			formula func(n int64) int64
			want    except.ID
		}{
			{
				name:    "a: plain ε mix",
				votes:   func(i int) except.ID { return except.ID(fmt.Sprintf("eps%d", i)) },
				formula: func(n int64) int64 { return n * (n - 1) },
				want:    "own",
			},
			{
				name: "b: one ƒ",
				votes: func(i int) except.ID {
					if i == 0 {
						return except.Failure
					}
					return except.None
				},
				formula: func(n int64) int64 { return n * (n - 1) },
				want:    except.Failure,
			},
			{
				name: "c: one µ, undo ok",
				votes: func(i int) except.ID {
					if i == 0 {
						return except.Undo
					}
					return except.None
				},
				formula: func(n int64) int64 { return 2 * n * (n - 1) },
				want:    except.Undo,
			},
			{
				name: "d: one µ, one undo fails",
				votes: func(i int) except.ID {
					if i == 0 {
						return except.Undo
					}
					return except.None
				},
				undoErr: func(id string) error {
					if id == "T2" {
						return fmt.Errorf("undo failed")
					}
					return nil
				},
				formula: func(n int64) int64 { return 2 * n * (n - 1) },
				want:    except.Failure,
			},
		}
		for _, tc := range cases {
			row, err := runSigCase(n, tc.name, tc.votes, tc.undoErr, tc.want)
			if err != nil {
				return nil, err
			}
			row.Formula = tc.formula(int64(n))
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runSigCase(n int, name string, votes func(i int) except.ID,
	undoErr func(id string) error, want except.ID) (SigRow, error) {
	env := simenv.New(simenv.Latency(10 * time.Millisecond))
	peers := threadNames(n)

	var mu sync.Mutex
	var undos int64
	decisions := make(map[string]signal.Decision, n)
	var firstErr error

	err := env.Peers(peers, func(i int, ep transport.Endpoint) {
		self := peers[i]
		inst := signal.New(signal.Config{
			Action: "sig#1", Self: self, Peers: peers,
			Send: func(to string, msg protocol.Message) { _ = ep.Send(to, msg) },
			Undo: func() error {
				mu.Lock()
				undos++
				mu.Unlock()
				if undoErr != nil {
					return undoErr(self)
				}
				return nil
			},
		})
		dec := inst.Start(votes(i))
		for !dec.Done {
			d, ok := ep.Recv()
			if !ok {
				return
			}
			var derr error
			if dec, derr = inst.Deliver(d.From, &d.Msg); derr != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = derr
				}
				mu.Unlock()
				return
			}
		}
		mu.Lock()
		decisions[self] = dec
		mu.Unlock()
	})
	if err != nil {
		return SigRow{}, err
	}
	if firstErr != nil {
		return SigRow{}, firstErr
	}
	outcome := want
	for i, id := range peers {
		dec, ok := decisions[id]
		if !ok {
			return SigRow{}, fmt.Errorf("harness: %s: %s undecided", name, id)
		}
		expect := want
		if want == "own" {
			expect = votes(i)
		}
		if dec.Signal != expect {
			return SigRow{}, fmt.Errorf("harness: %s: %s signalled %q, want %q",
				name, id, dec.Signal, expect)
		}
	}
	return SigRow{
		Case:     name,
		N:        n,
		Messages: env.Metrics.Get("msg.ToBeSignalled"),
		Signal:   outcome,
		Undos:    undos,
	}, nil
}

// RenderSignalling renders experiment E4.
func RenderSignalling(rows []SigRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Case, fmt.Sprint(r.N),
			fmt.Sprint(r.Messages), fmt.Sprint(r.Formula),
			string(r.Signal), fmt.Sprint(r.Undos),
		})
	}
	return Table([]string{"case", "N", "messages", "formula", "outcome", "undo runs"}, cells)
}
