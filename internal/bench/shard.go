// Shard-scaling sweep: aggregate throughput versus shard count
// through internal/engine — the measurement TestShardSimThroughputScales
// pins (wall-clock serving numbers come from `go run ./benchmark`).
// Two throughput figures are reported per row, because they answer
// different questions:
//
//   - sim req/s divides the request count by the SLOWEST shard's
//     virtual device time. Shards model independent hardware (each
//     owns its own memory tree and storage partitions), so this is the
//     deployment-model aggregate throughput — it scales with shard
//     count regardless of how many host cores the benchmark machine
//     has;
//   - wall req/s is the real elapsed time of the run, which reflects
//     host-core parallelism across the per-shard scheduler goroutines
//     (flat on one core, scaling on a multi-core runner).
package bench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/engine"
)

// ShardParams sizes one shard-scaling sweep.
type ShardParams struct {
	Blocks    int64
	BlockSize int
	MemBytes  int64 // total across shards
	Requests  int
	BatchSize int
	Seed      string
}

// ShardRow is one shard-count measurement.
type ShardRow struct {
	Shards       int
	Requests     int
	Wall         time.Duration
	WallTput     float64
	SimTime      time.Duration // max over shards
	SimTput      float64
	Cycles       int64
	PaddedCycles int64 // leveling cost (subset of cycles)
	Shuffles     int64
	// MinShardReqs/MaxShardReqs are the extremes of the per-shard
	// request counts — the balance check (a skewed partition shows a
	// wide spread; the PRF deal should keep it narrow).
	MinShardReqs int64
	MaxShardReqs int64
}

// RunShard sweeps the shard counts on the same logical workload: the
// same seeded mixed read/write request stream is submitted in
// equal-size batches, and the engine scatters each batch across the
// shards' schedulers.
func RunShard(shardCounts []int, p ShardParams) ([]ShardRow, error) {
	rows := make([]ShardRow, 0, len(shardCounts))
	for _, s := range shardCounts {
		row, err := runShardOne(s, p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runShardOne(shards int, p ShardParams) (ShardRow, error) {
	e, err := engine.New(engine.Options{
		Blocks:      p.Blocks,
		BlockSize:   p.BlockSize,
		MemoryBytes: p.MemBytes,
		Insecure:    true,
		Seed:        fmt.Sprintf("%s-%d", p.Seed, shards),
		Shards:      shards,
	})
	if err != nil {
		return ShardRow{}, err
	}
	defer e.Close() //horam:errok bench teardown; the measured run is already over

	// One seeded workload for every shard count: 80/20 hot-spot reads
	// with a write every fourth request.
	rng := blockcipher.NewRNGFromString(p.Seed + "-wl")
	hot := p.Blocks / 20
	if hot < 1 {
		hot = 1
	}
	payload := bytes.Repeat([]byte{0x5a}, p.BlockSize)
	reqs := make([]*engine.Request, p.Requests)
	for i := range reqs {
		var addr int64
		if rng.Intn(10) < 8 {
			addr = rng.Int63n(hot)
		} else {
			addr = rng.Int63n(p.Blocks)
		}
		if i%4 == 3 {
			reqs[i] = &engine.Request{Op: engine.OpWrite, Addr: addr, Data: payload}
		} else {
			reqs[i] = &engine.Request{Op: engine.OpRead, Addr: addr}
		}
	}

	start := time.Now()
	for off := 0; off < len(reqs); off += p.BatchSize {
		end := off + p.BatchSize
		if end > len(reqs) {
			end = len(reqs)
		}
		if err := e.Batch(reqs[off:end]); err != nil {
			return ShardRow{}, err
		}
	}
	wall := time.Since(start)

	sum := e.Stats()
	row := ShardRow{
		Shards:       shards,
		Requests:     p.Requests,
		Wall:         wall,
		WallTput:     float64(p.Requests) / wall.Seconds(),
		SimTime:      sum.SimTime,
		SimTput:      float64(p.Requests) / sum.SimTime.Seconds(),
		Cycles:       sum.Cycles,
		PaddedCycles: sum.Padded,
		Shuffles:     sum.Shuffles,
	}
	for i, sh := range e.ShardStats() {
		if i == 0 || sh.Requests < row.MinShardReqs {
			row.MinShardReqs = sh.Requests
		}
		if sh.Requests > row.MaxShardReqs {
			row.MaxShardReqs = sh.Requests
		}
	}
	return row, nil
}
