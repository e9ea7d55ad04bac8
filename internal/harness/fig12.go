package harness

import (
	"fmt"
	"strings"
	"time"

	"caaction/internal/core"
	"caaction/internal/except"
	"caaction/internal/resolve"
)

// Fig12Config parameterises experiment E2 (the paper's §5.3 / Figs. 12–13):
// three threads enter a CA action, compute, and then all raise different
// exceptions nearly at the same time; the total execution time is compared
// between the paper's algorithm and the CR-86 model.
type Fig12Config struct {
	Tmmax    time.Duration
	Tres     time.Duration
	Protocol resolve.Protocol
}

// fig12Work is the pre-raise computation, tuned so the baseline
// (Tmmax = 1.0 s, Tres = 0.3 s) lands at the paper's 9.15 s for the
// Coordinated algorithm (entry hop + work + exception hop + Tres + commit
// hop + exit hop = 4·Tmmax + work + Tres).
const fig12Work = 4850 * time.Millisecond

// RunFig12Point measures one total execution time.
func RunFig12Point(cfg Fig12Config) (time.Duration, error) {
	env, rt, err := newSystem(cfg.Tmmax, cfg.Protocol)
	if err != nil {
		return 0, err
	}
	g := primGraph(3)
	spec := &core.Spec{
		Name: "compare",
		Roles: []core.Role{
			{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}, {Name: "c", Thread: "T3"},
		},
		Graph:  g,
		Timing: core.Timing{Resolution: cfg.Tres},
	}
	resolving := except.Combined("e1", "e2", "e3")
	handler := func(ctx *core.Context, resolved except.ID, _ []except.Raised) error {
		if resolved != resolving {
			return fmt.Errorf("harness: resolved %q, want %q", resolved, resolving)
		}
		return nil
	}

	err = perform(env, rt, spec, func(r core.Role) core.RoleProgram {
		exc := except.ID("e" + strings.TrimPrefix(r.Thread, "T"))
		return core.RoleProgram{
			Body: func(ctx *core.Context) error {
				if err := ctx.Compute(fig12Work); err != nil {
					return err
				}
				return ctx.Raise(exc, "concurrent fault")
			},
			Handlers: map[except.ID]core.Handler{resolving: handler},
		}
	})
	if err != nil {
		return 0, fmt.Errorf("harness: fig12: %v", err)
	}
	return env.Clock.Now(), nil
}

// Fig12Row is one line of the Figure 12 table.
type Fig12Row struct {
	Varied     string
	Value      time.Duration
	Ours       time.Duration
	CR         time.Duration
	PaperOurs  float64
	PaperCR    float64
	ResolveOur int64 // resolution-procedure invocations (ours)
	ResolveCR  int64 // resolution-procedure invocations (CR-86)
}

var fig12Paper = map[string]map[int][2]float64{
	"Tmmax": {1000: {9.153302, 11.770973}, 1200: {9.938735, 12.978797},
		1400: {10.758318, 14.168119}, 1600: {11.548076, 15.397075},
		1800: {12.356180, 16.558536}, 2000: {13.164378, 17.757369},
		2200: {13.931107, 18.967081}, 2400: {14.720373, 20.188518}},
	"Tres": {300: {9.153302, 11.770973}, 500: {9.348575, 12.358930},
		700: {9.581770, 12.984660}, 900: {9.762674, 13.604786},
		1100: {9.981335, 14.212014}, 1300: {10.177758, 14.817670},
		1500: {10.414642, 15.288979}},
}

// RunFig12 sweeps Tmmax (at Tres = 0.3 s) and Tres (at Tmmax = 1.0 s) for
// both algorithms, as Figure 12 does.
func RunFig12() ([]Fig12Row, error) {
	var rows []Fig12Row
	point := func(varied string, tm, tr time.Duration) error {
		ours, err := RunFig12Point(Fig12Config{Tmmax: tm, Tres: tr, Protocol: resolve.Coordinated{}})
		if err != nil {
			return err
		}
		cr, err := RunFig12Point(Fig12Config{Tmmax: tm, Tres: tr, Protocol: resolve.CR86{}})
		if err != nil {
			return err
		}
		var key int
		if varied == "Tmmax" {
			key = int(tm.Milliseconds())
		} else {
			key = int(tr.Milliseconds())
		}
		paper := fig12Paper[varied][key]
		value := tm
		if varied == "Tres" {
			value = tr
		}
		rows = append(rows, Fig12Row{
			Varied: varied, Value: value, Ours: ours, CR: cr,
			PaperOurs: paper[0], PaperCR: paper[1],
		})
		return nil
	}
	for _, tm := range sweepRange(1000, 2400, 200) {
		if err := point("Tmmax", tm, 300*time.Millisecond); err != nil {
			return nil, err
		}
	}
	for _, tr := range sweepRange(300, 1500, 200) {
		if err := point("Tres", time.Second, tr); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// RenderFig12 renders the comparison as a markdown table.
func RenderFig12(rows []Fig12Row) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Varied, Seconds(r.Value),
			Seconds(r.Ours), fmt.Sprintf("%.3f", r.PaperOurs),
			Seconds(r.CR), fmt.Sprintf("%.3f", r.PaperCR),
		})
	}
	return Table([]string{"varied", "value (s)",
		"ours measured (s)", "ours paper (s)",
		"CR-86 measured (s)", "CR-86 paper (s)"}, cells)
}
