// The remote ShardBackend: one shard of a gateway engine served by a
// horamd -shard-serve node on the far end of a TCP connection. Data
// traffic rides the ordinary block protocol (MULTI/READ/WRITE);
// control traffic — cycle leveling, aligned checkpoints, identity
// probes — rides the shard-control verbs (CYCLES/PAD/CHECKPT/PEEK)
// the node enables.
package cluster

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
)

// remoteShard implements engine.ShardBackend over a client connection
// to a -shard-serve node. The engine's one-scheduler-goroutine-per-
// shard discipline serialises Batch calls, so the connection never
// sees interleaved MULTI frames from one gateway.
type remoteShard struct {
	index  int
	addr   string
	c      *client.Client
	blocks int64

	// failures counts transport/protocol errors surfaced by this
	// node, stamped in fail(); Observe exposes it per node.
	failures atomic.Int64
}

var _ engine.ShardBackend = (*remoteShard)(nil)

func (r *remoteShard) Blocks() int64 { return r.blocks }

// Batch runs the shard-local requests through the node as MULTI
// frames, chunked at the protocol cap. Read results land in the
// requests' Result fields; a write's Result stays nil (the wire
// protocol does not return previous contents) and the simulated
// submit/done timestamps are not populated — the node's clocks are
// not this process's clocks.
func (r *remoteShard) Batch(reqs []*engine.Request) error {
	for off := 0; off < len(reqs); off += client.MaxBatchOps {
		end := off + client.MaxBatchOps
		if end > len(reqs) {
			end = len(reqs)
		}
		ops := make([]client.Op, end-off)
		for i, req := range reqs[off:end] {
			ops[i] = client.Op{Addr: req.Addr}
			if req.Op == engine.OpWrite {
				ops[i].Write = true
				ops[i].Data = req.Data
			}
		}
		results, err := r.c.Batch(ops)
		if err != nil {
			return r.fail(err)
		}
		for i, res := range results {
			if res.Err != nil {
				return r.fail(res.Err)
			}
			if req := reqs[off+i]; req.Op == engine.OpRead {
				req.Result = res.Data
			}
		}
	}
	return nil
}

func (r *remoteShard) Cycles() (int64, error) {
	n, err := r.c.Cycles()
	if err != nil {
		return 0, r.fail(err)
	}
	return n, nil
}

func (r *remoteShard) PadToCycles(target int64) (int64, error) {
	padded, err := r.c.Pad(target)
	if err != nil {
		return padded, r.fail(err)
	}
	return padded, nil
}

// Stats reconstructs the node's scheme counters from its STATS line:
// the node is a 1-shard engine, so its shard-0 series are the shard's.
// The engine's Stats path has no error channel (counters are
// best-effort diagnostics, unlike Cycles which correctness depends
// on), so a node that cannot answer — or answers a line missing one of
// these series — contributes zeros.
func (r *remoteShard) Stats() core.Stats {
	kv, err := r.c.Stats()
	if err != nil {
		return core.Stats{}
	}
	var st core.Stats
	var maxCycle, simTime int64
	for _, f := range []struct {
		name string
		dst  *int64
	}{
		{"horam_shard_requests", &st.Requests},
		{"horam_shard_hits", &st.Hits},
		{"horam_shard_misses", &st.Misses},
		{"horam_shard_shuffles", &st.Shuffles},
		{"horam_shard_quanta", &st.ShuffleQuanta},
		{"horam_shard_cycles", &st.Cycles},
		{"horam_shard_max_cycle_ns", &maxCycle},
		{"horam_shard_sim_ns", &simTime},
	} {
		if *f.dst, err = client.StatInt(kv, f.name+`{shard="0"}`); err != nil {
			return core.Stats{}
		}
	}
	st.MaxCycleTime = time.Duration(maxCycle)
	st.SimulatedTime = time.Duration(simTime)
	return st
}

func (r *remoteShard) SaveSnapshotAt(checkpoint uint64) error {
	if err := r.c.Checkpt(checkpoint); err != nil {
		return r.fail(err)
	}
	return nil
}

// Peek reads the node's epoch and lifetime checkpoint counter — the
// agreement the engine checks across shards at assembly, here checked
// across processes.
func (r *remoteShard) Peek() (epoch, checkpoint uint64, err error) {
	kv, err := r.c.Peek()
	if err != nil {
		return 0, 0, r.fail(err)
	}
	if epoch, err = strconv.ParseUint(kv["epoch"], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("cluster: node %d (%s): bad PEEK epoch %q", r.index, r.addr, kv["epoch"])
	}
	if checkpoint, err = strconv.ParseUint(kv["checkpoint"], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("cluster: node %d (%s): bad PEEK checkpoint %q", r.index, r.addr, kv["checkpoint"])
	}
	return epoch, checkpoint, nil
}

func (r *remoteShard) Close() error {
	if err := r.c.Close(); err != nil {
		return r.fail(err)
	}
	return nil
}

// fail stamps an error with the shard's placement identity, so a
// gateway's per-task ERR lines say WHICH node failed.
func (r *remoteShard) fail(err error) error {
	r.failures.Add(1)
	return fmt.Errorf("cluster: shard %d (%s): %w", r.index, r.addr, err)
}
