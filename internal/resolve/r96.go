package resolve

import (
	"fmt"

	"caaction/internal/except"
	"caaction/internal/protocol"
)

// R96 models the authors' earlier algorithm (Romanovsky, Xu & Randell 1996)
// as three all-to-all rounds:
//
//  1. every thread broadcasts its status (Exception from raisers, Suspended
//     from informed threads);
//  2. once a thread knows every status it runs the resolution procedure
//     itself and broadcasts the result as a proposal;
//  3. when all proposals agree the thread broadcasts an acknowledgement and
//     decides once every acknowledgement is in.
//
// This costs 3N(N−1) messages per resolution level (the paper's
// nmax·3N(N−1) bound) and runs the resolution procedure at every thread —
// the redundancy the paper's Coordinated algorithm eliminates by electing a
// single resolver.
type R96 struct{}

var _ Protocol = R96{}

// Name implements Protocol.
func (R96) Name() string { return "r96" }

// NewInstance implements Protocol.
func (R96) NewInstance(cfg Config) Instance {
	c := &r96Instance{
		proposes: make(map[string]except.ID),
		acks:     make(map[string]bool),
	}
	c.init(cfg)
	return c
}

type r96Instance struct {
	roundState
	proposes map[string]except.ID
	acks     map[string]bool
	proposal except.ID
	proposed bool
	acked    bool
}

var _ Instance = (*r96Instance)(nil)

func (c *r96Instance) Raise(exc except.Raised) Outcome {
	c.raise(exc)
	c.maybePropose()
	return c.outcome(false)
}

func (c *r96Instance) Deliver(from string, msg protocol.Message) (Outcome, error) {
	switch msg.Kind {
	case protocol.KindException:
		i, err := c.sender(from, msg.Action, msg.Round)
		if err != nil {
			return Outcome{}, err
		}
		c.record(i, entry{state: StateExceptional, exc: msg.Exc})
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
		c.maybeAck()
		return c.outcome(false), nil

	case protocol.KindAck:
		if _, err := c.sender(from, msg.Action, msg.Round); err != nil {
			return Outcome{}, err
		}
		c.acks[from] = true
		c.maybeDecide()
		return c.outcome(false), nil

	default:
		return Outcome{}, fmt.Errorf("%w: %v", ErrUnexpected, msg.Kind)
	}
}

func (c *r96Instance) maybePropose() {
	if c.proposed || !c.complete() {
		return
	}
	c.proposal = c.cfg.Resolve(c.raisedSet())
	c.proposed = true
	c.proposes[c.cfg.Self] = c.proposal
	broadcast(&c.cfg, protocol.Message{Kind: protocol.KindPropose,
		Action: c.cfg.Action, From: c.cfg.Self, Round: c.cfg.Round, Resolved: c.proposal})
	c.maybeAck()
}

func (c *r96Instance) maybeAck() {
	if c.acked || !c.proposed || len(c.proposes) != len(c.cfg.Peers) {
		return
	}
	c.acked = true
	c.acks[c.cfg.Self] = true
	broadcast(&c.cfg, protocol.Message{Kind: protocol.KindAck,
		Action: c.cfg.Action, From: c.cfg.Self, Round: c.cfg.Round})
	c.maybeDecide()
}

func (c *r96Instance) maybeDecide() {
	if c.decided || !c.acked || len(c.acks) != len(c.cfg.Peers) {
		return
	}
	resolved := c.proposal
	for _, p := range c.proposes {
		if p != resolved {
			resolved = except.Universal
			break
		}
	}
	c.decide(resolved, c.raisedSet())
}
