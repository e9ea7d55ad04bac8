package harness

import (
	"fmt"
	"sync"
	"time"

	"caaction/internal/core"
	"caaction/internal/except"
)

// Lemma1Row is one line of experiment E6: the measured completion time of
// coordinated exception handling against Lemma 1's bound
//
//	T ≤ (2·nmax + 3)·Tmmax + nmax·Tabort + (nmax + 1)·(Treso + ∆max).
type Lemma1Row struct {
	Nesting  int // nmax
	Measured time.Duration
	Bound    time.Duration
}

// lemma1Handler is ∆max: the handler cost in the bound.
const lemma1Handler = 200 * time.Millisecond

// RunLemma1 measures, for each nesting depth, the time from the raising of
// the containing-action exception to the completion of exception handling at
// every thread, for the worst-case shape of the Lemma 1 proof: the informed
// threads sit at the innermost of nmax nested actions and must abort the
// whole chain.
func RunLemma1(depths []int, tmmax, tabo, treso time.Duration) ([]Lemma1Row, error) {
	var rows []Lemma1Row
	for _, d := range depths {
		measured, err := runLemma1Point(d, tmmax, tabo, treso)
		if err != nil {
			return nil, err
		}
		bound := time.Duration(2*d+3)*tmmax + time.Duration(d)*tabo +
			time.Duration(d+1)*(treso+lemma1Handler)
		rows = append(rows, Lemma1Row{Nesting: d, Measured: measured, Bound: bound})
	}
	return rows, nil
}

func runLemma1Point(depth int, tmmax, tabo, treso time.Duration) (time.Duration, error) {
	env, rt, err := newSystem(tmmax, nil)
	if err != nil {
		return 0, err
	}
	gOuter, err := except.NewBuilder("lemma1").
		Node("outer_exc").
		WithUniversal().
		Build()
	if err != nil {
		return 0, err
	}
	outer := &core.Spec{
		Name: "containing",
		Roles: []core.Role{
			{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}, {Name: "c", Thread: "T3"},
		},
		Graph:  gOuter,
		Timing: core.Timing{Resolution: treso},
	}
	levels := make([]*core.Spec, depth)
	for i := range levels {
		levels[i] = &core.Spec{
			Name:   fmt.Sprintf("level%d", i+1),
			Roles:  []core.Role{{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}},
			Graph:  primGraph(2),
			Timing: core.Timing{Abortion: tabo},
		}
	}

	var mu sync.Mutex
	var raisedAt time.Duration
	var handledAt time.Duration
	handler := func(ctx *core.Context, _ except.ID, _ []except.Raised) error {
		if err := ctx.Compute(lemma1Handler); err != nil {
			return err
		}
		mu.Lock()
		if t := ctx.Now(); t > handledAt {
			handledAt = t
		}
		mu.Unlock()
		return nil
	}

	// descend enters the chain of nested actions to the innermost level.
	var descend func(ctx *core.Context, role string, level int) error
	descend = func(ctx *core.Context, role string, level int) error {
		if level == depth {
			return ctx.Compute(time.Hour) // interrupted by the abort cascade
		}
		return ctx.Enter(levels[level], role, core.RoleProgram{
			Body: func(c2 *core.Context) error {
				return descend(c2, role, level+1)
			},
		})
	}

	err = perform(env, rt, outer, func(r core.Role) core.RoleProgram {
		prog := core.RoleProgram{
			Handlers: map[except.ID]core.Handler{"outer_exc": handler},
		}
		switch r.Name {
		case "c":
			prog.Body = func(ctx *core.Context) error {
				// Give the peers time to reach the innermost level.
				if err := ctx.Compute(time.Duration(depth+2) * tmmax * 2); err != nil {
					return err
				}
				mu.Lock()
				raisedAt = ctx.Now()
				mu.Unlock()
				return ctx.Raise("outer_exc", "worst-case trigger")
			}
		default:
			prog.Body = func(ctx *core.Context) error {
				return descend(ctx, r.Name, 0)
			}
		}
		return prog
	})
	if err != nil {
		return 0, fmt.Errorf("harness: lemma1: %v", err)
	}
	if handledAt <= raisedAt {
		return 0, fmt.Errorf("harness: lemma1: handling did not complete (raised %v, handled %v)",
			raisedAt, handledAt)
	}
	return handledAt - raisedAt, nil
}

// RenderLemma1 renders experiment E6.
func RenderLemma1(rows []Lemma1Row) string {
	var cells [][]string
	for _, r := range rows {
		ok := "yes"
		if r.Measured > r.Bound {
			ok = "VIOLATED"
		}
		cells = append(cells, []string{
			fmt.Sprint(r.Nesting), Seconds(r.Measured), Seconds(r.Bound), ok,
		})
	}
	return Table([]string{"nmax", "measured handling time (s)", "Lemma 1 bound (s)", "within bound"}, cells)
}
