// The shard-transport seam. The engine speaks ShardBackend only: a
// shard is either an in-process *core.Client (New and Restore build
// them) or a horamd -shard-serve node on the far end of a TCP
// connection (internal/cluster's remote backend, speaking the CYCLES/
// PAD/CHECKPT/PEEK shard-control verbs). The interface carries the
// scatter/gather, leveling and checkpoint coordination; opening and
// restoring a shard stay with whoever owns its state — core for an
// in-process directory, the node itself for a remote one.
package engine

import (
	"errors"

	"repro/internal/core"
)

// ShardBackend is one shard of a sharded engine: a full H-ORAM
// instance the engine drains batches into, levels, and checkpoints.
// Implementations must be safe for the engine's access pattern — one
// scheduler goroutine calling Batch, while Cycles/PadToCycles/Stats
// may arrive from other goroutines at any time (one caller's leveling
// pass overlaps another caller's drain) and SaveSnapshotAt only with
// the engine quiesced. Scatter never touches the backend; the engine
// queues requests itself.
type ShardBackend interface {
	// Blocks is the shard-local address-space size; the engine
	// cross-checks it against its PRF partition at assembly.
	Blocks() int64
	// Batch runs the shard-local requests as one scheduler batch;
	// results land in each request's Result field in submission order.
	Batch(reqs []*Request) error
	// Cycles returns the shard's cumulative scheduler cycle count —
	// the quantity the engine levels across shards. Remote backends
	// fetch it over the wire (CYCLES), so it can fail.
	Cycles() (int64, error)
	// PadToCycles runs dummy cycles until the cumulative count reaches
	// target and returns how many were run (PAD over the wire).
	PadToCycles(target int64) (int64, error)
	// Stats returns the shard's scheme counters. Remote backends
	// reconstruct them from the node's STATS line; fields the wire
	// protocol does not carry stay zero.
	Stats() core.Stats
	// SaveSnapshotAt checkpoints the shard's control state at an
	// explicit lifetime number (CHECKPT over the wire), so the engine
	// can drive every shard to ONE aligned cut.
	SaveSnapshotAt(checkpoint uint64) error
	// Peek reports the shard's key-derivation epoch and lifetime
	// checkpoint counter without disturbing it (PEEK over the wire).
	// The engine refuses to assemble shards whose epochs or
	// checkpoints disagree — the directory (or cluster) would mix
	// state from different checkpoint cuts.
	Peek() (epoch, checkpoint uint64, err error)
	// Close releases the shard's resources. The engine joins all
	// shards' close errors (errors.Join) into its own Close result.
	Close() error
}

// ErrRemoteRestore says a remote shard cannot be re-opened over its
// transport: a node restores its own directory at startup. No engine
// path returns it; it stays only because benchmark/trace.go names it.
var ErrRemoteRestore = errors.New("engine: remote shards restore from their own data directory at node startup; coordinated restore over the wire is not supported")

var _ ShardBackend = (*core.Client)(nil)
