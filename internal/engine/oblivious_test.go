// Obliviousness regression: every shard's access-period bus must
// present the identical shape every cycle — exactly one storage load
// overlapped with exactly c memory-tier path accesses — regardless of
// the workload's hit/miss mix and of the shard count, while the
// deamortized shuffle pipeline runs its quanta between cycles. This
// is the paper's §4.2 indistinguishability argument, asserted on
// recorded device traces via internal/trace.
package engine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/horam"
	"repro/internal/trace"
)

// shuffleModes names the shuffle pipeline every obliviousness property
// must hold under; its name is the last element of the subtest IDs.
var shuffleModes = []struct {
	name string
}{
	{"incremental"},
}

// shardShape is the adversary-visible per-cycle shape of one shard's
// trace: the number of cycles and the (constant) number of memory-tier
// device events each cycle presents.
type shardShape struct {
	cycles      int
	memPerCycle int
}

// obliviousEngine builds an engine with a fixed c=3 schedule (so the
// expected per-cycle shape is constant over the whole period) and
// attaches a shuffle-filtered trace recorder to every shard. The
// memory tier is sized so every shard's miss budget exceeds its
// shuffle-period quantum count — cycles only carry their storage load
// while budget remains, and this test's cycle-grouping keys on the
// loads.
func obliviousEngine(t *testing.T, shards int, seed string) (*Engine, []*trace.Recorder) {
	t.Helper()
	e, err := New(Options{
		Blocks:      1024,
		BlockSize:   64,
		MemoryBytes: 16 << 10,
		Insecure:    true,
		Seed:        seed,
		Shards:      shards,
		Stages:      []horam.Stage{{C: 3, Frac: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	recs := make([]*trace.Recorder, shards)
	for i := 0; i < shards; i++ {
		oram := e.Shard(i).Engine()
		rec := trace.NewRecorder()
		h := rec.Hook()
		// Record only access-period traffic: the shuffle's own traffic
		// (the full pass, or each bounded quantum) has its own
		// sequential, data-independent shape, asserted separately by
		// TestFullTraceWorkloadIndependent and the horam tests.
		filtered := func(dev string, op device.Op, slot int64) {
			if !oram.InShuffle() {
				h(dev, op, slot)
			}
		}
		oram.Stor().SetHook(filtered)
		oram.Mem().SetHook(filtered)
		recs[i] = rec
	}
	return e, recs
}

// analyzeShard groups one shard's trace into scheduler cycles
// (delimited by storage-device events) and asserts the invariants that
// do not depend on geometry: storage traffic is read-only during
// access periods, every cycle has exactly one storage load, and every
// cycle presents the same number of memory-tier events.
func analyzeShard(t *testing.T, label string, rec *trace.Recorder, storName string) shardShape {
	t.Helper()
	events := rec.Events()
	if len(events) == 0 {
		t.Fatalf("%s: no events recorded", label)
	}
	if events[0].Dev != storName {
		t.Fatalf("%s: trace starts with %s/%s, want a storage load first (storage and memory phases overlap; the simulator issues the load before the paths)", label, events[0].Dev, events[0].Op)
	}
	memCounts := []int{}
	current := -1
	for _, ev := range events {
		if ev.Dev == storName {
			if ev.Op != device.OpRead {
				t.Fatalf("%s: storage WRITE at slot %d during an access period (shuffle leak)", label, ev.Slot)
			}
			memCounts = append(memCounts, 0)
			current = len(memCounts) - 1
			continue
		}
		memCounts[current]++
	}
	per := memCounts[0]
	for c, n := range memCounts {
		if n != per {
			t.Fatalf("%s: cycle %d presented %d memory events, cycle 0 presented %d — bus shape varies with the request mix", label, c, n, per)
		}
	}
	return shardShape{cycles: len(memCounts), memPerCycle: per}
}

// TestBusShapeInvariantAcrossWorkloadsAndShardCounts runs two
// adversarially different workloads — a cold uniform scan (maximal
// misses) and a hot 8-address loop (maximal hits after warmup), with
// writes mixed into the hot case — and asserts every shard's per-cycle
// bus shape is identical across cycles, across the two workloads, and
// across the shards of each engine, at shard counts 1, 2 and 4, in
// the deamortized shuffle pipeline.
func TestBusShapeInvariantAcrossWorkloadsAndShardCounts(t *testing.T) {
	const requests = 360
	workloads := []struct {
		name string
		addr func(rng *blockcipher.RNG, i int) int64
		mix  bool // include writes
	}{
		{"cold-scan", func(rng *blockcipher.RNG, i int) int64 { return int64(i*13) % 1024 }, false},
		{"hot-loop", func(rng *blockcipher.RNG, i int) int64 { return int64(i % 8) }, true},
	}

	for _, mode := range shuffleModes {
		for _, shards := range []int{1, 2, 4} {
			shapes := make(map[string]map[int]shardShape) // workload -> shard -> shape
			for _, wl := range workloads {
				e, recs := obliviousEngine(t, shards, fmt.Sprintf("oblivious-%d", shards))
				storName := e.Shard(0).Engine().Stor().Name()
				rng := blockcipher.NewRNGFromString("oblivious-wl")
				payload := bytes.Repeat([]byte{0xab}, 64)
				var reqs []*Request
				for i := 0; i < requests; i++ {
					a := wl.addr(rng, i)
					if wl.mix && i%3 == 0 {
						reqs = append(reqs, &Request{Op: OpWrite, Addr: a, Data: payload})
					} else {
						reqs = append(reqs, &Request{Op: OpRead, Addr: a})
					}
				}
				for off := 0; off < len(reqs); off += 60 {
					end := off + 60
					if end > len(reqs) {
						end = len(reqs)
					}
					if err := e.Batch(reqs[off:end]); err != nil {
						t.Fatal(err)
					}
				}

				if shapes[wl.name] == nil {
					shapes[wl.name] = make(map[int]shardShape)
				}
				for i, rec := range recs {
					label := fmt.Sprintf("%s shards=%d %s shard %d", mode.name, shards, wl.name, i)
					shape := analyzeShard(t, label, rec, storName)
					cycles := e.Shard(i).Stats().Cycles
					if int64(shape.cycles) != cycles {
						t.Fatalf("%s: trace shows %d cycles, scheduler counted %d — a cycle ran without its storage load", label, shape.cycles, cycles)
					}
					shapes[wl.name][i] = shape
				}

				// Leveling: with the engine quiescent, every shard must have
				// run the identical number of cycles, whatever the workload's
				// collision structure.
				for i := 1; i < shards; i++ {
					if a, b := shapes[wl.name][0].cycles, shapes[wl.name][i].cycles; a != b {
						t.Errorf("%s shards=%d %s: shard 0 ran %d cycles but shard %d ran %d — per-shard traffic volume leaks the workload",
							mode.name, shards, wl.name, a, i, b)
					}
				}
			}

			// The shape (memory events per cycle) must not depend on the
			// workload or on which shard served it. Only the TOTAL cycle
			// count may differ between workloads — the same quantity a
			// single unsharded instance reveals — and leveling keeps that
			// total identical on every shard (asserted above). All shards of
			// an engine share one memory-tree geometry, so one constant
			// describes them all.
			ref := shapes[workloads[0].name][0].memPerCycle
			for wl, perShard := range shapes {
				for i, s := range perShard {
					if s.memPerCycle != ref {
						t.Errorf("%s shards=%d: workload %s shard %d presents %d memory events per cycle, want %d — hit/miss mix is visible on the bus",
							mode.name, shards, wl, i, s.memPerCycle, ref)
					}
				}
			}
			t.Logf("%s shards=%d: every cycle = 1 storage load + %d memory events, both workloads, all shards", mode.name, shards, ref)
		}
	}
}

// TestShardCycleCountsHideCollisionStructure pins down the channel
// that sharding alone would open and batch-boundary leveling closes: a
// device-level adversary observes each shard's cycle count, and with a
// fixed address->shard map those counts would reflect address
// collisions — a hot single address drives exactly one shard, a
// uniform scan drives all of them. After every batch the engine pads
// all shards to the maximum cumulative cycle count with dummy cycles,
// so the two adversarial extremes below must produce a perfectly flat
// cross-shard cycle distribution — including while the deamortized
// shuffle has quanta in flight on some shards.
func TestShardCycleCountsHideCollisionStructure(t *testing.T) {
	const requests = 240
	workloads := []struct {
		name string
		addr func(i int) int64
	}{
		{"hot-single-address", func(i int) int64 { return 7 }},
		{"uniform-scan", func(i int) int64 { return int64(i*31) % 1024 }},
	}
	for _, mode := range shuffleModes {
		for _, shards := range []int{2, 4} {
			for _, wl := range workloads {
				e, err := New(Options{
					Blocks:      1024,
					BlockSize:   64,
					MemoryBytes: 16 << 10,
					Insecure:    true,
					Seed:        fmt.Sprintf("leveling-%d", shards),
					Shards:      shards,
					Stages:      []horam.Stage{{C: 3, Frac: 1}},
				})
				if err != nil {
					t.Fatal(err)
				}
				var reqs []*Request
				for i := 0; i < requests; i++ {
					reqs = append(reqs, &Request{Op: OpRead, Addr: wl.addr(i)})
				}
				for off := 0; off < len(reqs); off += 48 {
					if err := e.Batch(reqs[off : off+48]); err != nil {
						t.Fatal(err)
					}
				}
				stats := e.ShardStats()
				ref := stats[0].Cycles
				if ref == 0 {
					t.Fatalf("%s shards=%d %s: shard 0 ran no cycles", mode.name, shards, wl.name)
				}
				var padded int64
				for _, sh := range stats {
					if sh.Cycles != ref {
						t.Errorf("%s shards=%d %s: shard %d ran %d cycles, shard 0 ran %d — collision structure is visible in per-shard traffic",
							mode.name, shards, wl.name, sh.Shard, sh.Cycles, ref)
					}
					padded += sh.PadCycles
				}
				// The hot workload funnels every request into one shard, so
				// leveling must actually have padded the others — guard
				// against the assertion passing vacuously because padding
				// accounting broke.
				if wl.name == "hot-single-address" && padded == 0 {
					t.Errorf("%s shards=%d %s: no pad cycles recorded; leveling did not run", mode.name, shards, wl.name)
				}
				e.Close()
			}
		}
	}
}

// TestFullTraceWorkloadIndependent is the deamortized pipeline's
// strongest obliviousness assertion: the COMPLETE device-event
// sequence — access cycles AND shuffle-mode quanta, storage and memory
// tiers, no filtering — must be identical, event for event in (device,
// op), between two adversarially different workloads, once both
// engines are padded to a common cycle count. The whole schedule
// (when shuffle mode engages, which quantum each cycle carries, every
// access cycle's 1-load + c-path shape) is a deterministic function of
// the cycle index alone; only the slots (uniformly random by
// construction) and the ciphertexts may differ.
func TestFullTraceWorkloadIndependent(t *testing.T) {
	const shards = 2
	build := func() (*Engine, []*trace.Recorder) {
		e, err := New(Options{
			Blocks:      1024,
			BlockSize:   64,
			MemoryBytes: 16 << 10,
			Insecure:    true,
			Seed:        "full-trace",
			Shards:      shards,
			Stages:      []horam.Stage{{C: 3, Frac: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		recs := make([]*trace.Recorder, shards)
		for i := 0; i < shards; i++ {
			rec := trace.NewRecorder()
			h := rec.Hook()
			e.Shard(i).Engine().Stor().SetHook(h)
			e.Shard(i).Engine().Mem().SetHook(h)
			recs[i] = rec
		}
		return e, recs
	}

	run := func(e *Engine, addr func(i int) int64) {
		var reqs []*Request
		for i := 0; i < 300; i++ {
			reqs = append(reqs, &Request{Op: OpRead, Addr: addr(i)})
		}
		for off := 0; off < len(reqs); off += 50 {
			if err := e.Batch(reqs[off : off+50]); err != nil {
				t.Fatal(err)
			}
		}
	}

	hotE, hotRecs := build()
	run(hotE, func(i int) int64 { return int64(i % 4) })
	scanE, scanRecs := build()
	run(scanE, func(i int) int64 { return int64(i*29) % 1024 })

	// Pad both engines' shards to one common cycle count: from equal
	// cycle counts (and equal geometry — same seed, same partition),
	// equal traces must follow.
	target := int64(0)
	for _, e := range []*Engine{hotE, scanE} {
		for i := 0; i < shards; i++ {
			if c := e.Shard(i).Stats().Cycles; c > target {
				target = c
			}
		}
	}
	for _, e := range []*Engine{hotE, scanE} {
		for i := 0; i < shards; i++ {
			if _, err := e.Shard(i).PadToCycles(target); err != nil {
				t.Fatal(err)
			}
		}
	}

	sig := func(rec *trace.Recorder) []string {
		evs := rec.Events()
		out := make([]string, len(evs))
		for i, ev := range evs {
			out[i] = fmt.Sprintf("%s/%d", ev.Dev, ev.Op)
		}
		return out
	}
	for i := 0; i < shards; i++ {
		hot, scan := sig(hotRecs[i]), sig(scanRecs[i])
		if len(hot) != len(scan) {
			t.Fatalf("shard %d: hot workload produced %d device events, scan %d — total traffic depends on the request mix", i, len(hot), len(scan))
		}
		for j := range hot {
			if hot[j] != scan[j] {
				t.Fatalf("shard %d: event %d is %s under hot but %s under scan — the op sequence depends on the request mix", i, j, hot[j], scan[j])
			}
		}
		if got := hotE.Shard(i).Stats().ShuffleQuanta; got == 0 {
			t.Fatalf("shard %d: no shuffle quanta ran; the trace never exercised the incremental pipeline", i)
		}
	}
}
