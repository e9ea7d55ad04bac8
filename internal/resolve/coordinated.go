package resolve

import (
	"fmt"
	"sync"

	"caaction/internal/except"
	"caaction/internal/protocol"
)

// Coordinated is the paper's resolution algorithm (§3.3.2):
//
//   - a raiser moves to state X and broadcasts Exception;
//   - a thread informed of remote exceptions while in state N moves to S and
//     broadcasts Suspended;
//   - once a thread holds the exception-or-suspended status of every
//     participant and it is the thread with the largest identifier among
//     those in state X, it alone runs the resolution procedure and
//     broadcasts Commit;
//   - everyone else decides upon receiving Commit.
//
// The message count is (N+1)(N−1) per resolution regardless of how many
// exceptions were raised concurrently (Theorem 2), and the resolution
// procedure runs exactly once.
type Coordinated struct{}

var _ Protocol = Coordinated{}

// Name implements Protocol.
func (Coordinated) Name() string { return "coordinated" }

// NewInstance implements Protocol.
func (Coordinated) NewInstance(cfg Config) Instance { return newCoordInstance(cfg, 1) }

// coordInstance runs the paper's algorithm with a resolver group of k
// threads: Coordinated is k = 1, CoordinatedGroup any k.
type coordInstance struct {
	roundState
	k int
}

var _ Instance = (*coordInstance)(nil)

// coordPool recycles instances across rounds: an exceptional action runs
// at least one round per role, and the instance carries no state past its
// round. release scrubs every field, so a pooled instance is
// indistinguishable from a fresh one.
var coordPool = sync.Pool{New: func() any { return new(coordInstance) }}

func newCoordInstance(cfg Config, k int) *coordInstance {
	c := coordPool.Get().(*coordInstance)
	c.k = k
	c.init(cfg)
	return c
}

// release returns the instance to the pool; see Release.
func (c *coordInstance) release() {
	*c = coordInstance{}
	coordPool.Put(c)
}

func (c *coordInstance) Raise(exc except.Raised) Outcome {
	c.raise(exc)
	c.maybeResolve()
	return c.outcome(false)
}

func (c *coordInstance) Deliver(from string, msg protocol.Message) (Outcome, error) {
	switch msg.Kind {
	case protocol.KindException:
		i, err := c.sender(from, msg.Action, msg.Round)
		if err != nil {
			return Outcome{}, err
		}
		c.record(i, entry{state: StateExceptional, exc: msg.Exc})
		informed := c.suspendIfNormal()
		c.maybeResolve()
		return c.outcome(informed), nil

	case protocol.KindSuspended:
		i, err := c.sender(from, msg.Action, msg.Round)
		if err != nil {
			return Outcome{}, err
		}
		c.record(i, entry{state: StateSuspended})
		informed := c.suspendIfNormal()
		c.maybeResolve()
		return c.outcome(informed), nil

	case protocol.KindCommit:
		if _, err := c.sender(from, msg.Action, msg.Round); err != nil {
			return Outcome{}, err
		}
		c.decide(msg.Resolved, msg.Raised)
		return c.outcome(false), nil

	default:
		return Outcome{}, fmt.Errorf("%w: %v", ErrUnexpected, msg.Kind)
	}
}

// maybeResolve implements the resolver guard: all participants accounted for
// and self among the k largest-identified threads in state X.
func (c *coordInstance) maybeResolve() {
	if c.decided || !c.complete() || c.state != StateExceptional || c.largerExceptional() >= c.k {
		return
	}
	raised := c.raisedSet()
	resolved := c.cfg.Resolve(raised)
	c.decide(resolved, raised)
	broadcast(&c.cfg, protocol.Message{Kind: protocol.KindCommit,
		Action: c.cfg.Action, From: c.cfg.Self, Round: c.cfg.Round,
		Resolved: resolved, Raised: raised,
	})
}
