package harness

import (
	"fmt"
	"strings"
	"time"

	"caaction/internal/core"
	"caaction/internal/except"
	"caaction/internal/resolve"
)

// MsgRow is one line of experiment E3: measured message and resolution-call
// counts for one (protocol, N, scenario) cell, against the closed forms of
// §3.3.3 (and the modelled forms for the baselines).
type MsgRow struct {
	Protocol     string
	N            int
	Scenario     string // "one" or "all": one raiser or all N raising
	Messages     int64  // resolution-protocol messages only
	Formula      int64  // the closed-form prediction
	ResolveCalls int64
	CallsFormula int64
}

// RunMessageComplexity measures resolution-message counts by driving full CA
// actions (entry and exit messages are excluded from the count, matching the
// paper's accounting, which counts Exception/Suspended/Commit only).
func RunMessageComplexity(ns []int) ([]MsgRow, error) {
	var rows []MsgRow
	protos := []resolve.Protocol{resolve.Coordinated{}, resolve.CR86{}, resolve.R96{}}
	for _, proto := range protos {
		for _, n := range ns {
			for _, scenario := range []string{"one", "all"} {
				row, err := runMsgCell(proto, n, scenario)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func runMsgCell(proto resolve.Protocol, n int, scenario string) (MsgRow, error) {
	env, rt, err := newSystem(10*time.Millisecond, proto)
	if err != nil {
		return MsgRow{}, err
	}
	g := primGraph(n)
	specRoles := make([]core.Role, n)
	names := threadNames(n)
	for i, id := range names {
		specRoles[i] = core.Role{Name: fmt.Sprintf("r%d", i+1), Thread: id}
	}
	spec := &core.Spec{Name: "msgs", Roles: specRoles, Graph: g}

	handler := func(ctx *core.Context, _ except.ID, _ []except.Raised) error { return nil }
	handlers := map[except.ID]core.Handler{}
	for _, id := range g.Nodes() {
		handlers[id] = handler
	}

	err = perform(env, rt, spec, func(r core.Role) core.RoleProgram {
		raises := scenario == "all" || r.Thread == names[0]
		exc := except.ID("e" + strings.TrimPrefix(r.Thread, "T"))
		return core.RoleProgram{
			Body: func(ctx *core.Context) error {
				if raises {
					return ctx.Raise(exc, "")
				}
				return ctx.Compute(time.Hour) // interrupted by peers
			},
			Handlers: handlers,
		}
	})
	if err != nil {
		return MsgRow{}, fmt.Errorf("harness: msgs: %v", err)
	}

	measured := env.Metrics.Get("msg.Exception") + env.Metrics.Get("msg.Suspended") +
		env.Metrics.Get("msg.Commit") + env.Metrics.Get("msg.Relay") +
		env.Metrics.Get("msg.Propose") + env.Metrics.Get("msg.Ack")
	formula, calls := msgFormula(proto.Name(), n, scenario)
	return MsgRow{
		Protocol:     proto.Name(),
		N:            n,
		Scenario:     scenario,
		Messages:     measured,
		Formula:      formula,
		ResolveCalls: env.Metrics.Get("resolve.calls"),
		CallsFormula: calls,
	}, nil
}

// msgFormula returns the predicted message and resolution-call counts:
// the paper's (N+1)(N−1) with one system-wide resolution for Coordinated
// (§3.3.3, both enumerated cases); 3N(N−1) with N resolutions for R-96; and
// the modelled CR-86 forms (every first-hand exception relayed to N−2
// threads, a resolution per relay received plus one verification per
// thread, plus an agreement round).
func msgFormula(proto string, n int, scenario string) (msgs, calls int64) {
	n64 := int64(n)
	switch proto {
	case "coordinated":
		return (n64 + 1) * (n64 - 1), 1
	case "r96":
		return 3 * n64 * (n64 - 1), n64
	case "cr86":
		raisers := int64(1)
		if scenario == "all" {
			raisers = n64
		}
		exceptions := raisers * (n64 - 1)
		relays := raisers * (n64 - 1) * (n64 - 2)
		suspendeds := (n64 - raisers) * (n64 - 1)
		proposes := n64 * (n64 - 1)
		// Calls per thread: one per relay received, a fallback resolution
		// when no relays were due, and one agreement verification.
		var totalCalls int64
		for i := int64(0); i < n64; i++ {
			foreignRaisers := raisers
			if scenario == "all" || i == 0 {
				foreignRaisers-- // own exception is not relayed back
			}
			if scenario == "all" {
				foreignRaisers = n64 - 1
			}
			received := foreignRaisers * (n64 - 2)
			calls := received + 1 // verification
			if received == 0 {
				calls++ // fallback resolution before proposing
			}
			totalCalls += calls
		}
		return exceptions + relays + suspendeds + proposes, totalCalls
	default:
		return 0, 0
	}
}

// RenderMsgs renders experiment E3.
func RenderMsgs(rows []MsgRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Protocol, fmt.Sprint(r.N), r.Scenario,
			fmt.Sprint(r.Messages), fmt.Sprint(r.Formula),
			fmt.Sprint(r.ResolveCalls), fmt.Sprint(r.CallsFormula),
		})
	}
	return Table([]string{"protocol", "N", "raisers",
		"messages", "formula", "resolve calls", "calls formula"}, cells)
}
