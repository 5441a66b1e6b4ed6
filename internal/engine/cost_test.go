package engine

import (
	"testing"

	"repro/internal/blockcipher"
)

// The scheduler cost ledger. Fixed-seed, single-caller streams run
// over the default device.Sim tiers, and the engine's total and
// leveling-pad cycle counts are pinned below as literals. A single
// caller makes every drain and every leveling pass deterministic, so
// the counts move only when the scheduler's cost does: a change to how
// many cycles a request costs shows up here as a reviewed diff of this
// table, next to the reason it moved.
var costLedger = []struct {
	name   string
	shards int
	batch  int  // requests per engine batch
	ops    int  // logical requests in the stream
	fresh  bool // every address requested once: every op is a miss
	cycles int64
	pads   int64
}{
	// A miss is served by the load that fetches it: one cycle per op.
	{"1 shard, lone misses", 1, 1, 1000, true, 1000, 0},
	{"4 shards, 16-request batches", 4, 16, 1600, false, 2432, 900},
}

func TestSchedulerCostLedger(t *testing.T) {
	for _, row := range costLedger {
		t.Run(row.name, func(t *testing.T) {
			e, err := New(Options{
				Blocks:      4096,
				BlockSize:   32,
				MemoryBytes: 16 << 10,
				Insecure:    true,
				Seed:        "cost-ledger",
				Shards:      row.shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })

			rng := blockcipher.NewRNGFromString("cost-ledger-wl")
			perm := rng.Perm(int(e.Blocks()))
			data := make([]byte, e.BlockSize())
			for done := 0; done < row.ops; done += row.batch {
				reqs := make([]*Request, row.batch)
				for i := range reqs {
					addr := rng.Int63n(e.Blocks())
					if row.fresh {
						addr = int64(perm[done+i])
					}
					reqs[i] = &Request{Op: OpRead, Addr: addr}
					if rng.Intn(2) == 0 {
						reqs[i] = &Request{Op: OpWrite, Addr: addr, Data: data}
					}
				}
				if err := e.Batch(reqs); err != nil {
					t.Fatal(err)
				}
			}

			st := e.Stats()
			if st.Cycles != row.cycles || st.Padded != row.pads {
				t.Errorf("cycles %d, pad cycles %d; ledger %d, %d", st.Cycles, st.Padded, row.cycles, row.pads)
			}
			if st.Requests != int64(row.ops) {
				t.Errorf("completed %d requests, want %d", st.Requests, row.ops)
			}
			if row.fresh && st.Misses != int64(row.ops) {
				t.Errorf("%d of %d ops missed; the stream must be all misses", st.Misses, row.ops)
			}
			if st.Shuffles == 0 {
				t.Error("no shuffle ran; the stream must span access periods")
			}
		})
	}
}
