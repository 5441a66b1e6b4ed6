package engine

import (
	"fmt"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/trace"
)

// TestNoStorageSlotReadTwiceWithLevelingPads checks the square-root
// invariant on every shard of a sharded engine: between two shuffle
// rewrites of a storage slot, access traffic reads it at most once.
// Leveling pads a shard with dummy cycles, and each dummy cycle's
// storage load draws on the same miss budget as a real one, so the
// property must hold with the pads included. The workload is skewed —
// batches over three hot addresses, with a uniform batch every fourth
// batch — so that pads make up most of some shards' cycles.
func TestNoStorageSlotReadTwiceWithLevelingPads(t *testing.T) {
	const (
		blocks    = 1024
		batches   = 240
		batchSize = 16
	)
	for _, shards := range []int{1, 2, 4} {
		for _, mode := range shuffleModes {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, mode.name), func(t *testing.T) {
				e, err := New(Options{
					Blocks:      blocks,
					BlockSize:   64,
					MemoryBytes: 16 << 10,
					Insecure:    true,
					Seed:        "read-once",
					Shards:      shards,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()

				recs := make([]*trace.Recorder, shards)
				for i := range recs {
					oram := e.Shard(i).Engine()
					rec := trace.NewRecorder()
					h := rec.Hook()
					oram.Stor().SetHook(func(dev string, op device.Op, slot int64) {
						if oram.InShuffle() && op == device.OpRead {
							return
						}
						h(dev, op, slot)
					})
					recs[i] = rec
				}

				rng := blockcipher.NewRNGFromString("read-once-wl")
				hot := []int64{3, 500, 777}
				for b := 0; b < batches; b++ {
					reqs := make([]*Request, batchSize)
					for i := range reqs {
						addr := hot[rng.Int63n(int64(len(hot)))]
						if b%4 == 3 {
							addr = rng.Int63n(blocks)
						}
						reqs[i] = &Request{Op: OpRead, Addr: addr}
					}
					if err := e.Batch(reqs); err != nil {
						t.Fatal(err)
					}
				}

				var pads int64
				for i, st := range e.ShardStats() {
					events := recs[i].Events()
					if at := trace.FirstRepeat(events); at >= 0 {
						t.Errorf("shard %d: storage slot %d read twice without a shuffle rewrite in between (event %d of %d)",
							i, events[at].Slot, at, len(events))
					}
					if st.Shuffles < 2 {
						t.Errorf("shard %d: only %d shuffles; the check must span several periods", i, st.Shuffles)
					}
					pads += st.PadCycles
					t.Logf("shard %d: %d cycles, %d pad cycles, %d shuffles, %d events", i, st.Cycles, st.PadCycles, st.Shuffles, len(events))
				}
				if shards > 1 && pads == 0 {
					t.Error("no shard ran a leveling pad cycle; the workload no longer exercises pads")
				}
			})
		}
	}
}
