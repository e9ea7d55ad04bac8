// Package harness implements the paper's evaluation (§5): one function per
// table/figure, each returning typed rows that cmd/caexperiments renders as
// markdown and the root bench suite measures. Every experiment runs on the
// deterministic virtual clock, so "total execution time" is exact virtual
// time, reproducible bit-for-bit.
//
// Scenario constants (work chunks, handler costs) are tuned so the baseline
// points land near the paper's published numbers; EXPERIMENTS.md documents
// the tuning and compares every paper value against the measured one.
package harness

import (
	"fmt"
	"strings"
	"time"

	"caaction/internal/core"
	"caaction/internal/except"
	"caaction/internal/resolve"
	"caaction/internal/simenv"
	"caaction/internal/transport"
)

// newSystem builds a simulated system with fixed one-way latency (the
// paper's Tmmax) and a runtime on it running the given resolution protocol
// (nil means the paper's Coordinated algorithm).
func newSystem(latency time.Duration, proto resolve.Protocol) (*simenv.Env, *core.Runtime, error) {
	env := simenv.New(simenv.Latency(latency))
	rt, err := core.New(core.Config{
		Clock:    env.Clock,
		Protocol: proto,
		Metrics:  env.Metrics,
	})
	return env, rt, err
}

// runRoles starts one instance of spec on env, one participant per role,
// each calling run with its role's thread, and returns the first role's
// error in role order.
func runRoles(env *simenv.Env, rt *core.Runtime, spec *core.Spec, run func(*core.Thread, core.Role) error) error {
	var results map[string]error
	err := env.Run(func() ([]func(), error) {
		var participants []func()
		var err error
		participants, results, err = rt.Participants(transport.NewMux(env.Clock, env.Net), "h", spec, run)
		return participants, err
	})
	if err != nil {
		return err
	}
	for _, r := range spec.Roles {
		if err := results[r.Thread]; err != nil {
			return err
		}
	}
	return nil
}

// perform runs one action of spec, each role with the program that program
// returns for it, and returns the first role's error in role order.
func perform(env *simenv.Env, rt *core.Runtime, spec *core.Spec, program func(core.Role) core.RoleProgram) error {
	return runRoles(env, rt, spec, func(th *core.Thread, r core.Role) error {
		return th.Perform(spec, r.Name, program(r))
	})
}

// Seconds formats a duration as the paper prints times.
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// Table renders a simple markdown table.
func Table(headers []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(headers, " | ") + " |\n")
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}

// threadNames returns T1..Tn.
func threadNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("T%d", i+1)
	}
	return out
}

// primGraph builds a full exception graph over e1..en.
func primGraph(n int) *except.Graph {
	prims := make([]except.ID, n)
	for i := range prims {
		prims[i] = except.ID(fmt.Sprintf("e%d", i+1))
	}
	g, err := except.GenerateFull("bench", prims)
	if err != nil {
		panic(err)
	}
	return g
}
