// Tail-latency sweep: per-request latency distributions under the
// monolithic stop-the-world shuffle versus the deamortized incremental
// pipeline — the measurement TestLatencySweepSmoke pins. Aggregate
// throughput (the shard sweep) hides the shuffle entirely — the
// paper's own short-data-block analysis makes tail latency, not the
// mean, the binding constraint for batched serving — so this sweep
// measures what a single request experiences:
//
//   - sim latency: the owning shard's virtual-clock span from ROB
//     submission to completion, including any shuffle work that ran in
//     between. In monolithic mode a request that lands behind the
//     period pays the whole O(window·partition) pass; the incremental
//     pipeline bounds the work any cycle performs by O(one partition),
//     so the same request pays a handful of quanta instead.
//   - wall latency: the real elapsed time of the request's batch —
//     what a serving-layer client would observe on this host.
package bench

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/engine"
	"repro/internal/horam"
)

// LatencyParams sizes one latency sweep.
type LatencyParams struct {
	Blocks    int64
	BlockSize int
	MemBytes  int64 // total across shards
	Requests  int
	BatchSize int
	Shards    []int
	Seed      string
}

// LatencyRow is one (mode, shard count) measurement.
type LatencyRow struct {
	Mode     string // "monolithic" or "incremental"
	Shards   int
	Requests int

	// Per-request simulated latency (virtual device time).
	SimP50 time.Duration
	SimP99 time.Duration
	SimMax time.Duration

	// Per-request wall latency (the request's batch round-trip).
	WallP50 time.Duration
	WallP99 time.Duration
	WallMax time.Duration

	// Whole-run totals, to show deamortization does not buy its tail
	// with throughput: the period's work is the same, only its
	// placement changes.
	SimTotal  time.Duration // slowest shard
	WallTotal time.Duration

	Shuffles     int64
	Quanta       int64
	MaxCycleTime time.Duration
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// RunLatency sweeps both shuffle modes over the shard counts on the
// same seeded workload.
func RunLatency(p LatencyParams) ([]LatencyRow, error) {
	var rows []LatencyRow
	for _, shards := range p.Shards {
		for _, mode := range []struct {
			name       string
			monolithic bool
		}{{"monolithic", true}, {"incremental", false}} {
			row, err := runLatencyOne(shards, mode.monolithic, mode.name, p)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runLatencyOne(shards int, monolithic bool, modeName string, p LatencyParams) (LatencyRow, error) {
	// A flat group size (the obliviousness tests' schedule) keeps every
	// access cycle's service rate constant, so the distributions compare
	// the shuffle placement and nothing else: with the paper's staged
	// schedule the c=1 cold phase would bound the tail by the ROB drain
	// rate in both modes and blur the effect under measurement.
	e, err := engine.New(engine.Options{
		Blocks:            p.Blocks,
		BlockSize:         p.BlockSize,
		MemoryBytes:       p.MemBytes,
		Insecure:          true,
		Seed:              fmt.Sprintf("%s-%d", p.Seed, shards),
		Shards:            shards,
		MonolithicShuffle: monolithic,
		Stages:            []horam.Stage{{C: 3, Frac: 1}},
	})
	if err != nil {
		return LatencyRow{}, err
	}
	defer e.Close() //horam:errok bench teardown; the measured run is already over

	// The shard benchmark's workload shape: 80/20 hot-spot reads with a
	// write every fourth request.
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

	simLat := make([]time.Duration, 0, p.Requests)
	wallLat := make([]time.Duration, 0, p.Requests)
	start := time.Now()
	for off := 0; off < len(reqs); off += p.BatchSize {
		end := off + p.BatchSize
		if end > len(reqs) {
			end = len(reqs)
		}
		b0 := time.Now()
		if err := e.Batch(reqs[off:end]); err != nil {
			return LatencyRow{}, err
		}
		bd := time.Since(b0)
		for _, r := range reqs[off:end] {
			simLat = append(simLat, r.DoneSim-r.SubmitSim)
			wallLat = append(wallLat, bd)
		}
	}
	wall := time.Since(start)

	sort.Slice(simLat, func(i, j int) bool { return simLat[i] < simLat[j] })
	sort.Slice(wallLat, func(i, j int) bool { return wallLat[i] < wallLat[j] })
	sum := e.Stats()
	return LatencyRow{
		Mode:         modeName,
		Shards:       shards,
		Requests:     p.Requests,
		SimP50:       percentile(simLat, 0.50),
		SimP99:       percentile(simLat, 0.99),
		SimMax:       simLat[len(simLat)-1],
		WallP50:      percentile(wallLat, 0.50),
		WallP99:      percentile(wallLat, 0.99),
		WallMax:      wallLat[len(wallLat)-1],
		SimTotal:     sum.SimTime,
		WallTotal:    wall,
		Shuffles:     sum.Shuffles,
		Quanta:       sum.Quanta,
		MaxCycleTime: sum.MaxCycleTime,
	}, nil
}
