package harness

import (
	"fmt"
	"time"

	"caaction/internal/core"
	"caaction/internal/except"
)

// Fig9Config parameterises experiment E1 (the paper's §5.2 / Figs. 9–10):
// three threads in a containing CA action, two of them in a nested action;
// one containing-action exception aborts the nested action, the abortion
// handler raises a second exception, and the resolving exception covering
// both is handled by all three threads. The whole application loops.
type Fig9Config struct {
	Tmmax time.Duration // one-way message latency
	Tabo  time.Duration // abortion handler cost
	Treso time.Duration // resolution procedure cost
	Loops int           // the paper executes the system 20 times
}

// DefaultFig9 returns the paper's baseline point (0.2s, 0.1s, 0.3s, ×20).
func DefaultFig9() Fig9Config {
	return Fig9Config{
		Tmmax: 200 * time.Millisecond,
		Tabo:  100 * time.Millisecond,
		Treso: 300 * time.Millisecond,
		Loops: 20,
	}
}

// Scenario work constants, tuned so the baseline lands near the paper's
// 94.36 s (see EXPERIMENTS.md): the raiser works 1.3 s before raising, the
// informed threads' handlers compute 2.0 s while a cooperative
// handler-to-handler exchange is in flight, which produces the paper's
// knee: below Tmmax ≈ 1.0 s the exchange hides behind the handler
// computation; beyond it every hop is exposed.
const (
	fig9Work        = 1300 * time.Millisecond
	fig9HandlerCoop = 2 * time.Second
	fig9HandlerFast = 200 * time.Millisecond
	fig9NestedWork  = 30 * time.Second // aborted long before completing
)

// RunFig9Point executes the scenario once and returns the total (virtual)
// execution time.
func RunFig9Point(cfg Fig9Config) (time.Duration, error) {
	env, rt, err := newSystem(cfg.Tmmax, nil)
	if err != nil {
		return 0, err
	}
	gOuter, err := except.NewBuilder("fig9").
		Cover("both", "outer_exc", "abort_exc").
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
		Timing: core.Timing{Resolution: cfg.Treso},
	}
	nested := &core.Spec{
		Name:   "nested",
		Roles:  []core.Role{{Name: "a", Thread: "T1"}, {Name: "b", Thread: "T2"}},
		Graph:  primGraph(2),
		Timing: core.Timing{Abortion: cfg.Tabo},
	}

	// Handlers for the resolving exception: T1 and T2 cooperate (a
	// repair-token round trip) while computing; T3 recovers quickly.
	handlerA := func(ctx *core.Context, _ except.ID, _ []except.Raised) error {
		if err := ctx.Send("b", "repair-token"); err != nil {
			return err
		}
		if err := ctx.Compute(fig9HandlerCoop); err != nil {
			return err
		}
		_, err := ctx.Recv("b")
		return err
	}
	handlerB := func(ctx *core.Context, _ except.ID, _ []except.Raised) error {
		if _, err := ctx.Recv("a"); err != nil {
			return err
		}
		return ctx.Send("a", "repair-ack")
	}
	handlerC := func(ctx *core.Context, _ except.ID, _ []except.Raised) error {
		return ctx.Compute(fig9HandlerFast)
	}

	nestedBody := func(ctx *core.Context) error { return ctx.Compute(fig9NestedWork) }
	abortEab := func(ctx *core.Context) except.ID { return "abort_exc" }

	progs := map[string]core.RoleProgram{
		"a": {
			Body: func(ctx *core.Context) error {
				return ctx.Enter(nested, "a", core.RoleProgram{Body: nestedBody, OnAbort: abortEab})
			},
			Handlers: map[except.ID]core.Handler{"both": handlerA},
		},
		"b": {
			Body: func(ctx *core.Context) error {
				return ctx.Enter(nested, "b", core.RoleProgram{Body: nestedBody})
			},
			Handlers: map[except.ID]core.Handler{"both": handlerB},
		},
		"c": {
			Body: func(ctx *core.Context) error {
				if err := ctx.Compute(fig9Work); err != nil {
					return err
				}
				return ctx.Raise("outer_exc", "containing-action fault")
			},
			Handlers: map[except.ID]core.Handler{"both": handlerC},
		},
	}
	// The application loops: each thread performs its role Loops times.
	err = runRoles(env, rt, outer, func(th *core.Thread, r core.Role) error {
		for l := 0; l < cfg.Loops; l++ {
			if err := th.Perform(outer, r.Name, progs[r.Name]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("harness: fig9: %v", err)
	}
	return env.Clock.Now(), nil
}

// Fig9Row is one line of the Figure 9 table.
type Fig9Row struct {
	Varied string        // "Tmmax", "Tabo" or "Treso"
	Value  time.Duration // the varied parameter's value
	Total  time.Duration // measured total execution time
	Paper  float64       // the paper's reported seconds (0 if none)
}

// fig9Paper maps the paper's Figure 9 columns.
var fig9Paper = map[string]map[int]float64{
	"Tmmax": {200: 94.361391, 400: 98.586050, 600: 102.150904, 800: 106.774196,
		1000: 110.984972, 1200: 125.078084, 1400: 140.826807, 1600: 161.766956,
		1800: 188.284787, 2000: 214.519403, 2200: 226.543372, 2400: 237.934833,
		2600: 249.744183, 2800: 261.768559},
	"Tabo": {100: 94.361391, 300: 98.991825, 500: 101.939318, 700: 106.150075,
		900: 110.154827, 1100: 113.937682, 1300: 118.147893, 1500: 122.573297,
		1700: 128.461646, 1900: 130.362452, 2100: 134.165025},
	"Treso": {300: 94.361391, 500: 98.352511, 700: 102.547776, 900: 107.164660,
		1100: 110.338507, 1300: 114.729476, 1500: 118.928022, 1700: 122.483917,
		1900: 127.117187, 2100: 131.816326, 2300: 135.123453},
}

// RunFig9 sweeps the three parameters exactly as Figure 9 does.
func RunFig9() ([]Fig9Row, error) {
	var rows []Fig9Row
	sweep := func(name string, values []time.Duration, apply func(*Fig9Config, time.Duration)) error {
		for _, v := range values {
			cfg := DefaultFig9()
			apply(&cfg, v)
			total, err := RunFig9Point(cfg)
			if err != nil {
				return err
			}
			rows = append(rows, Fig9Row{
				Varied: name, Value: v, Total: total,
				Paper: fig9Paper[name][int(v.Milliseconds())],
			})
		}
		return nil
	}
	if err := sweep("Tmmax", sweepRange(200, 2800, 200), func(c *Fig9Config, v time.Duration) { c.Tmmax = v }); err != nil {
		return nil, err
	}
	if err := sweep("Tabo", sweepRange(100, 2100, 200), func(c *Fig9Config, v time.Duration) { c.Tabo = v }); err != nil {
		return nil, err
	}
	if err := sweep("Treso", sweepRange(300, 2300, 200), func(c *Fig9Config, v time.Duration) { c.Treso = v }); err != nil {
		return nil, err
	}
	return rows, nil
}

func sweepRange(fromMS, toMS, stepMS int) []time.Duration {
	var out []time.Duration
	for v := fromMS; v <= toMS; v += stepMS {
		out = append(out, time.Duration(v)*time.Millisecond)
	}
	return out
}

// RenderFig9 renders the sweep as a markdown table.
func RenderFig9(rows []Fig9Row) string {
	var cells [][]string
	for _, r := range rows {
		paper := "—"
		if r.Paper > 0 {
			paper = fmt.Sprintf("%.3f", r.Paper)
		}
		cells = append(cells, []string{
			r.Varied, Seconds(r.Value), Seconds(r.Total), paper,
		})
	}
	return Table([]string{"varied", "value (s)", "measured total (s)", "paper total (s)"}, cells)
}
