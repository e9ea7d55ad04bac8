package caaction

import (
	"caaction/internal/core"
	"caaction/internal/wal"
)

// Crash recovery: the public face of internal/wal, re-exported so cluster
// deployments (caaction/cluster, cmd/canode) can open durable write-ahead
// logs and replay them without reaching into internal packages.
//
// A Recorder receives write-ahead protocol state — entry-barrier joins
// and resolution-round raises before the corresponding message leaves
// the node, final outcomes when the action concludes (attach one with
// WithRecorder). Exit votes are not recorded (see Recorder).
// The WAL is the durable Recorder: OpenWAL opens an fsync-batched
// length-prefixed binary log with periodic snapshot compaction, and its
// State surfaces the in-flight actions and open tagged instances a
// restarted node uses to decide, per §3.4, what to re-join and what to
// abort deterministically. Concluded entries are forgotten: they need no
// decision.

// Recorder is the write-ahead sink for protocol state; implementations
// must be safe for concurrent use. A *WAL is a Recorder. The runtime calls
// RecordJoin, RecordRaise and RecordOutcome; RecordVote stays for source
// compatibility but is no longer called, since no recovery decision reads
// an exit vote and a thread that re-joins votes again.
type Recorder = core.Recorder

// WAL is the durable on-disk write-ahead log: every append is written and
// fsynced before it returns (concurrent appenders share one write and one
// fsync, group-commit style), and after SnapshotEvery appends (default
// 4096) the log is compacted to one snapshot of its live state, bounding
// replay length and file size by what is in flight rather than by
// history.
type WAL = wal.File

// WALState is a WAL's materialised state after replay: in-flight actions
// keyed by (thread, action) and open tagged cluster instances keyed by
// tag. A WAL drops an action when its outcome is logged and an instance
// when it is logged done.
type WALState = wal.State

// WALActionKey identifies one participant's view of one action instance
// in a WALState.
type WALActionKey = wal.ActionKey

// WALActionState is the replayed protocol state of one (thread, action)
// pair; WALInstanceState is the replayed state of one tagged cluster
// instance.
type (
	WALActionState   = wal.ActionState
	WALInstanceState = wal.InstanceState
)

// OpenWAL opens (or creates) the write-ahead log at path and replays it;
// a torn final record from a crash mid-append is discarded. snapshotEvery
// sets the compaction cadence in records (<= 0 means the default, 4096).
func OpenWAL(path string, snapshotEvery int) (*WAL, error) {
	return wal.Open(path, snapshotEvery)
}
