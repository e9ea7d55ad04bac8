package resolve

import "fmt"

// CoordinatedGroup is the fault-tolerance extension the paper sketches at
// the end of §3.3.3: instead of a single resolver, the K largest-identified
// threads among those in state X each perform resolution and broadcast
// Commit, so the resolution survives up to K−1 resolver crashes. Receivers
// decide on the first Commit; since resolution is deterministic over
// identical knowledge, all Commits agree.
//
// The cost is the predicted constant factor: for N concurrent raisers the
// message count grows from (N+1)(N−1) to (N+K)(N−1), and the resolution
// procedure runs min(K, |X|) times instead of once.
//
// CoordinatedGroup{K: 1} behaves exactly like Coordinated.
type CoordinatedGroup struct {
	// K is the resolver-group size; values below 1 are treated as 1.
	K int
}

var _ Protocol = CoordinatedGroup{}

// Name implements Protocol.
func (g CoordinatedGroup) Name() string { return fmt.Sprintf("coordinated-group-%d", g.size()) }

func (g CoordinatedGroup) size() int {
	if g.K < 1 {
		return 1
	}
	return g.K
}

// NewInstance implements Protocol.
func (g CoordinatedGroup) NewInstance(cfg Config) Instance { return newCoordInstance(cfg, g.size()) }
