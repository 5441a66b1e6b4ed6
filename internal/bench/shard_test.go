package bench

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/engine"
)

// hotspotEngine opens an insecure engine over o, seeded with seed and
// the shard count, and submits n requests of the gates' workload to it
// in batches of size: 80/20 hot-spot reads over the first 5% of the
// blocks with a write every fourth request, a pure function of seed.
func hotspotEngine(t *testing.T, o engine.Options, seed string, n, size int) (*engine.Engine, []*engine.Request) {
	t.Helper()
	o.Insecure, o.Seed = true, fmt.Sprintf("%s-%d", seed, o.Shards)
	e, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	rng := blockcipher.NewRNGFromString(seed + "-wl")
	hot := max(o.Blocks/20, 1)
	payload := bytes.Repeat([]byte{0x5a}, o.BlockSize)
	reqs := make([]*engine.Request, n)
	for i := range reqs {
		span := o.Blocks
		if rng.Intn(10) < 8 {
			span = hot
		}
		reqs[i] = &engine.Request{Op: engine.OpRead, Addr: rng.Int63n(span)}
		if i%4 == 3 {
			reqs[i].Op, reqs[i].Data = engine.OpWrite, payload
		}
	}
	for off := 0; off < n; off += size {
		if err := e.Batch(reqs[off:min(off+size, n)]); err != nil {
			t.Fatal(err)
		}
	}
	return e, reqs
}

// TestShardSimThroughputScales is the acceptance gate for the sharded
// engine: on the deployment-model metric (requests / slowest shard's
// virtual device time — shards are independent hardware), 4 shards
// must deliver at least 2x the aggregate throughput of 1 shard. The
// virtual clocks make this deterministic regardless of host cores.
func TestShardSimThroughputScales(t *testing.T) {
	const requests = 4000
	var tput []float64
	var four *engine.Engine
	for _, shards := range []int{1, 4} {
		o := engine.Options{Blocks: 4096, BlockSize: 128, MemoryBytes: 1 << 20, Shards: shards}
		e, _ := hotspotEngine(t, o, "shard-scaling-test", requests, 256)
		tput = append(tput, requests/e.Stats().SimTime.Seconds())
		four = e
	}
	if tput[1] < 2*tput[0] {
		t.Fatalf("4 shards: %.0f sim req/s vs 1 shard: %.0f — %.2fx, want >= 2x",
			tput[1], tput[0], tput[1]/tput[0])
	}
	t.Logf("sim throughput: 1 shard %.0f req/s, 4 shards %.0f req/s (%.2fx)",
		tput[0], tput[1], tput[1]/tput[0])

	// Balance check on the real per-shard spread: the PRF deal should
	// keep the hot-spot workload's requests within a sane band — a
	// degenerate partition (everything on one shard) would also erase
	// the throughput gain asserted above.
	var perShard []int64
	for _, sh := range four.ShardStats() {
		perShard = append(perShard, sh.Requests)
	}
	lo, hi := slices.Min(perShard), slices.Max(perShard)
	if lo == 0 {
		t.Fatalf("a shard served zero requests from a 4000-request workload: min=%d max=%d", lo, hi)
	}
	if hi > 4*lo {
		t.Errorf("per-shard request spread too wide: min=%d max=%d", lo, hi)
	}
}
