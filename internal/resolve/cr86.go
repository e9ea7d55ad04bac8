package resolve

import (
	"fmt"

	"caaction/internal/except"
	"caaction/internal/protocol"
)

// CR86 models Campbell & Randell's 1986 resolution scheme at the message
// level, the way the paper models it for its comparison experiments (§5.3):
//
//   - raisers broadcast Exception; threads informed while normal broadcast
//     Suspended (the conversation must still account for every
//     participant);
//   - every thread that receives a first-hand Exception relays it to all
//     other threads (except itself and the raiser) — there is no
//     distinguished resolver, so total knowledge is built redundantly;
//   - the resolution procedure runs at every thread on every relay
//     received, and once the thread has full knowledge it broadcasts its
//     proposal; a final verification resolution runs when all proposals
//     are in.
//
// For N threads all raising concurrently this costs N(N−1) Exception +
// N(N−1)(N−2) Relay + N(N−1) Propose messages — the O(N³) behaviour the
// paper attributes to the scheme — and invokes the resolution procedure
// (N−1)(N−2)+1 times per thread, against exactly once system-wide for
// Coordinated.
type CR86 struct{}

var _ Protocol = CR86{}

// Name implements Protocol.
func (CR86) Name() string { return "cr86" }

// NewInstance implements Protocol.
func (CR86) NewInstance(cfg Config) Instance {
	c := &cr86Instance{
		relays:   make(map[string]map[string]bool),
		proposes: make(map[string]except.ID),
	}
	c.init(cfg)
	return c
}

type cr86Instance struct {
	roundState
	relays   map[string]map[string]bool // exception origin -> relayers seen
	proposes map[string]except.ID
	proposal except.ID
	haveProp bool // a per-relay resolution result is available
	proposed bool
}

var _ Instance = (*cr86Instance)(nil)

func (c *cr86Instance) Raise(exc except.Raised) Outcome {
	c.raise(exc)
	c.maybePropose()
	return c.outcome(false)
}

func (c *cr86Instance) Deliver(from string, msg protocol.Message) (Outcome, error) {
	switch msg.Kind {
	case protocol.KindException:
		i, err := c.sender(from, msg.Action, msg.Round)
		if err != nil {
			return Outcome{}, err
		}
		c.record(i, entry{state: StateExceptional, exc: msg.Exc})
		// First-hand receipt: relay to everyone except self and raiser.
		for _, p := range c.cfg.Peers {
			if p != c.cfg.Self && p != from {
				c.cfg.Send(p, protocol.Message{Kind: protocol.KindRelay,
					Action: c.cfg.Action, From: c.cfg.Self, Round: c.cfg.Round, Exc: msg.Exc})
			}
		}
		informed := c.suspendIfNormal()
		c.maybePropose()
		return c.outcome(informed), nil

	case protocol.KindRelay:
		if _, err := c.sender(from, msg.Action, msg.Round); err != nil {
			return Outcome{}, err
		}
		origin := msg.Exc.Origin
		o, err := c.peer(origin)
		if err != nil {
			return Outcome{}, err
		}
		if c.relays[origin] == nil {
			c.relays[origin] = make(map[string]bool)
		}
		c.relays[origin][from] = true
		// A relay can outrun the first-hand copy; the exception content
		// still counts as knowledge.
		if c.entries[o].state == 0 {
			c.record(o, entry{state: StateExceptional, exc: msg.Exc})
		}
		// CR-86 has no distinguished resolver: the procedure reruns on
		// every relay.
		c.proposal = c.cfg.Resolve(c.raisedSet())
		c.haveProp = true
		informed := c.suspendIfNormal()
		c.maybePropose()
		return c.outcome(informed), nil

	case protocol.KindSuspended:
		i, err := c.sender(from, msg.Action, msg.Round)
		if err != nil {
			return Outcome{}, err
		}
		c.record(i, entry{state: StateSuspended})
		informed := c.suspendIfNormal()
		c.maybePropose()
		return c.outcome(informed), nil

	case protocol.KindPropose:
		if _, err := c.sender(from, msg.Action, msg.Round); err != nil {
			return Outcome{}, err
		}
		c.proposes[from] = msg.Resolved
		c.maybeDecide()
		return c.outcome(false), nil

	default:
		return Outcome{}, fmt.Errorf("%w: %v", ErrUnexpected, msg.Kind)
	}
}

// maybePropose fires once phase 1 is complete: every participant accounted
// for, and every expected relay received (for each foreign raiser r, a relay
// from every thread other than self and r).
func (c *cr86Instance) maybePropose() {
	if c.proposed || !c.complete() {
		return
	}
	n := len(c.cfg.Peers)
	for i, e := range c.entries {
		if e.state != StateExceptional || i == c.self {
			continue
		}
		if len(c.relays[c.cfg.Peers[i]]) < n-2 {
			return
		}
	}
	if !c.haveProp {
		// No relays were due (for example N == 2, or a sole raiser with
		// no other participants to relay): resolve now.
		c.proposal = c.cfg.Resolve(c.raisedSet())
		c.haveProp = true
	}
	c.proposed = true
	c.proposes[c.cfg.Self] = c.proposal
	broadcast(&c.cfg, protocol.Message{Kind: protocol.KindPropose,
		Action: c.cfg.Action, From: c.cfg.Self, Round: c.cfg.Round, Resolved: c.proposal})
	c.maybeDecide()
}

// maybeDecide fires once every proposal is in: a final verification
// resolution confirms agreement.
func (c *cr86Instance) maybeDecide() {
	if c.decided || !c.proposed || len(c.proposes) != len(c.cfg.Peers) {
		return
	}
	raised := c.raisedSet()
	verified := c.cfg.Resolve(raised)
	for _, p := range c.proposes {
		if p != verified {
			// Deterministic resolution over identical knowledge cannot
			// disagree; treat divergence as corruption and escalate.
			verified = except.Universal
			break
		}
	}
	c.decide(verified, raised)
}
