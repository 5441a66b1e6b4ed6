package horam

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/simclock"
)

// The memory tree's stash is bounded by the miss budget (construct sets
// its StashLimit there), and in constant-time mode that bound is the
// length of every masked stash scan. These tests pin the invariant
// that makes the bound safe and measure what the scans cost.

// ctGeometry is one shard of the block_ct benchmark workload: 512
// blocks of 64 B under an 8 KiB memory budget, a 124-slot memory tree
// with a miss budget of 62.
func ctGeometry(constantTime bool) Config {
	cfg := testConfig(512, 64, 0)
	cfg.MemoryBytes = 8 << 10
	cfg.ConstantTime = constantTime
	return cfg
}

// copyStorage is a storage factory that starts from src's raw image,
// as a restart over the same durable storage file would.
func copyStorage(src device.Backend) device.Factory {
	return func(p device.Profile, slotSize int, slots int64, clk *simclock.Clock) (device.Backend, error) {
		dev, err := device.New(p, slotSize, slots, clk)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, slotSize)
		for s := int64(0); s < slots; s++ {
			if err := src.ReadRaw(s, buf); err != nil {
				return nil, err
			}
			if err := dev.WriteRaw(s, buf); err != nil {
				return nil, err
			}
		}
		return dev, nil
	}
}

// TestMemoryTreeStaysWithinMissBudget drives several periods of mixed
// hot and uniform traffic, with a snapshot → restore in the middle of a
// period, and checks after every drain that the memory tree never holds
// more real blocks — in the tree or its stash — than the miss budget.
func TestMemoryTreeStaysWithinMissBudget(t *testing.T) {
	for _, ct := range []bool{false, true} {
		t.Run(fmt.Sprintf("constantTime=%v", ct), func(t *testing.T) {
			cfg := ctGeometry(ct)
			o, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			budget := o.MissBudget()
			if budget != 62 {
				t.Fatalf("miss budget %d, want 62 at this geometry", budget)
			}
			check := func(when string) {
				t.Helper()
				if real := o.mem.RealCount(); real > budget {
					t.Fatalf("%s: memory tree holds %d real blocks, miss budget %d", when, real, budget)
				}
				if peak := o.mem.StashPeak(); int64(peak) > budget {
					t.Fatalf("%s: stash peak %d, miss budget %d", when, peak, budget)
				}
			}

			rng := blockcipher.NewRNGFromString("horam-ctbound")
			model := make(map[int64][]byte)
			restored := false
			for batch := 0; o.Stats().Shuffles < 4; batch++ {
				if batch > 2000 {
					t.Fatalf("only %d shuffles after %d batches", o.Stats().Shuffles, batch)
				}
				var reqs []*Request
				for i := 0; i < 4; i++ {
					addr := rng.Int63n(cfg.Blocks) // uniform
					if rng.Intn(5) != 0 {
						addr = rng.Int63n(24) // hot set
					}
					r := &Request{Op: OpRead, Addr: addr}
					if rng.Intn(2) == 0 {
						r.Op, r.Data = OpWrite, fill(cfg.BlockSize, byte(batch+i))
					}
					reqs = append(reqs, r)
				}
				if err := o.RunBatch(reqs); err != nil {
					t.Fatal(err)
				}
				for _, r := range reqs {
					if r.Op == OpWrite {
						model[r.Addr] = r.Data
					}
				}
				check(fmt.Sprintf("batch %d", batch))

				// Restart once, halfway through the second period.
				if !restored && o.Stats().Shuffles == 1 && !o.ShufflePending() && o.missCount >= budget/2 {
					snap, err := o.CaptureSnapshot()
					if err != nil {
						t.Fatal(err)
					}
					rcfg := cfg
					rcfg.RNG = blockcipher.NewRNGFromString("horam-ctbound/restored")
					rcfg.Storage = copyStorage(o.Stor())
					if o, err = Restore(rcfg, snap); err != nil {
						t.Fatal(err)
					}
					restored = true
					check("after restore")
				}
			}
			if !restored {
				t.Fatal("traffic never reached the mid-period restart")
			}

			for addr, want := range model {
				got, err := o.Read(addr)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("block %d = %x, want %x", addr, got, want)
				}
			}
			check("after read-back")
		})
	}
}

// BenchmarkAccessConstantTime is one single-read H-ORAM operation at
// the block_ct shard geometry, in each controller mode; the ratio of
// the two sub-benchmarks is what constant-time mode costs.
func BenchmarkAccessConstantTime(b *testing.B) {
	for _, ct := range []bool{false, true} {
		name := "default"
		if ct {
			name = "constant-time"
		}
		b.Run(name, func(b *testing.B) {
			cfg := ctGeometry(ct)
			o, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := blockcipher.NewRNGFromString("bench")
			b.SetBytes(int64(cfg.BlockSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Read(rng.Int63n(cfg.Blocks)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
