// Oblivious key–value sweep: logical KV throughput versus shard
// count through internal/okv over internal/engine — the measurement
// TestKVSimThroughputScales and BenchmarkKVOps drive. Each logical
// operation costs one fixed pipeline of block batches (2S slot reads,
// E extent reads, 1+E writes — reported per row as blocks/op), so KV
// throughput is the block-store throughput divided by a constant; the
// sweep shows how much of the engine's shard scaling the KV layer
// keeps. As in the shard sweep, sim req/s divides by the SLOWEST
// shard's virtual device time (shards model independent hardware) and
// wall req/s reflects host-core parallelism.
package bench

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/engine"
	"repro/internal/okv"
)

// KVParams sizes one KV throughput sweep.
type KVParams struct {
	Blocks         int64
	BlockSize      int
	MemBytes       int64 // total across shards
	SlotsPerBucket int
	MaxValueBytes  int
	SeedKeys       int // keys inserted before measurement
	Ops            int // measured mixed operations, split across Workers
	Workers        int // concurrent clients driving the measured phase
	Seed           string
}

// KVRow is one shard-count measurement.
type KVRow struct {
	Shards      int
	Ops         int
	BlocksPerOp int // fixed pipeline size
	Wall        time.Duration
	WallTput    float64
	SimTime     time.Duration // measured phase, max over shard clocks
	SimTput     float64
	Gets        int64
	Sets        int64
	Dels        int64
	Misses      int64
	LiveKeys    int64
	Capacity    int64
}

// kvOp is one logical operation of a worker's measured stream.
type kvOp struct {
	key []byte
	run func(*okv.Store) error
}

func kvKey(i int) []byte { return []byte(fmt.Sprintf("user-%06d", i)) }

// kvStream is worker w's share of the measured phase, a pure function
// of (p, w): a 60/30/10 get/set/del mix, gets 80/20 hot-spotted over
// the residents with ~9% ghosts.
func kvStream(p KVParams, w, workers int) []kvOp {
	rng := blockcipher.NewRNGFromString(fmt.Sprintf("%s-worker-%d", p.Seed, w))
	hot := max(p.SeedKeys/20, 1)
	n := p.Ops / workers
	if w < p.Ops%workers {
		n++
	}
	ops := make([]kvOp, n)
	for i := range ops {
		switch r := rng.Intn(10); {
		case r < 6:
			idx := rng.Intn(p.SeedKeys * 11 / 10) // ~9% ghosts
			if rng.Intn(10) < 8 {
				idx = rng.Intn(hot)
			}
			key := kvKey(idx)
			ops[i] = kvOp{key, func(s *okv.Store) error { _, _, err := s.Get(key); return err }}
		case r < 9:
			key := kvKey(rng.Intn(p.SeedKeys))
			val := bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(p.MaxValueBytes))
			ops[i] = kvOp{key, func(s *okv.Store) error { return s.Set(key, val) }}
		default:
			key := kvKey(rng.Intn(p.SeedKeys))
			ops[i] = kvOp{key, func(s *okv.Store) error { _, err := s.Del(key); return err }}
		}
	}
	return ops
}

// kvFreeRun drives each stream from its own goroutine: okv's striped
// locking lets disjoint ops overlap, so their fixed pipelines coalesce
// in the shards' queues as scheduling happens to allow.
func kvFreeRun(s *okv.Store, streams [][]kvOp) error {
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for w, ops := range streams {
		wg.Add(1)
		go func(w int, ops []kvOp) {
			defer wg.Done()
			for _, op := range ops {
				if errs[w] = op.run(s); errs[w] != nil {
					return
				}
			}
		}(w, ops)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runKVOne(shards int, p KVParams) (KVRow, error) {
	return runKVOver(shards, p, func(e *engine.Engine) okv.Backend { return e }, kvFreeRun)
}

// runKVOver measures one shard count with the table laid over
// backend(engine) and the measured phase run by drive (test seams).
func runKVOver(shards int, p KVParams, backend func(*engine.Engine) okv.Backend, drive func(*okv.Store, [][]kvOp) error) (KVRow, error) {
	e, err := engine.New(engine.Options{
		Blocks:      p.Blocks,
		BlockSize:   p.BlockSize,
		MemoryBytes: p.MemBytes,
		Insecure:    true,
		Seed:        fmt.Sprintf("%s-%d", p.Seed, shards),
		Shards:      shards,
	})
	if err != nil {
		return KVRow{}, err
	}
	defer e.Close() //horam:errok bench teardown; the measured run is already over
	s, err := okv.New(okv.Options{
		Backend:        backend(e),
		SlotsPerBucket: p.SlotsPerBucket,
		MaxValueBytes:  p.MaxValueBytes,
		Insecure:       true,
		Seed:           p.Seed,
	})
	if err != nil {
		return KVRow{}, err
	}

	// Seed phase: a resident population so the measured mix sees
	// mostly hits, like a warmed cache of user records.
	rng := blockcipher.NewRNGFromString(p.Seed + "-wl")
	for i := 0; i < p.SeedKeys; i++ {
		val := bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(p.MaxValueBytes))
		if err := s.Set(kvKey(i), val); err != nil {
			return KVRow{}, fmt.Errorf("seed key %d: %w", i, err)
		}
	}

	// Measured phase: Workers concurrent clients, each running its
	// share of the mix.
	preStats := s.Stats()
	preSim := e.Stats().SimTime
	streams := make([][]kvOp, max(p.Workers, 1))
	for w := range streams {
		streams[w] = kvStream(p, w, len(streams))
	}
	start := time.Now()
	if err := drive(s, streams); err != nil {
		return KVRow{}, err
	}
	wall := time.Since(start)

	sum := e.Stats()
	st := s.Stats()
	shape := s.Shape()
	row := KVRow{
		Shards:      shards,
		Ops:         p.Ops,
		BlocksPerOp: shape.LookupReads + shape.ExtentReads + shape.Writes,
		Wall:        wall,
		WallTput:    float64(p.Ops) / wall.Seconds(),
		SimTime:     sum.SimTime - preSim,
		Gets:        st.Gets - preStats.Gets,
		Sets:        st.Sets - preStats.Sets,
		Dels:        st.Dels - preStats.Dels,
		Misses:      st.Misses - preStats.Misses,
		LiveKeys:    st.Count,
		Capacity:    st.Capacity,
	}
	// Sim throughput is logical ops per virtual device second over the
	// measured phase alone (the serial seed phase is setup, not the
	// workload under test).
	row.SimTput = float64(p.Ops) / row.SimTime.Seconds()
	return row, nil
}
