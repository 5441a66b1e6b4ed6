package pathoram

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/oramtree"
	"repro/internal/simclock"
	"repro/internal/stash"
)

// What constant-time mode costs beyond the default mode, apart from the
// masked scans themselves: the scan length and the allocations per
// access.

// newNullORAM builds a fully written ORAM over NullSealer, so the
// allocation counts below are the controller's alone.
func newNullORAM(t *testing.T, blocks int64, blockSize int, ct bool) *ORAM {
	t.Helper()
	cfg := Config{
		Blocks:       blocks,
		BlockSize:    blockSize,
		Z:            4,
		Sealer:       blockcipher.NullSealer{},
		RNG:          blockcipher.NewRNGFromString("pathoram-ctcost"),
		ConstantTime: ct,
	}
	dev, err := device.New(device.DRAM(), cfg.SlotSize(), 8*2*blocks, simclock.New())
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	for a := int64(0); a < blocks; a++ {
		if err := o.Write(a, payload(blockSize, byte(a))); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// The constant-time stash copies every payload into its own pool,
// so the accesses must not also make the owned copy the map stash needs.
// The one allocation constant-time mode may add is the caller-owned
// buffer CT.Take returns.
func TestConstantTimeAccessAllocs(t *testing.T) {
	const blocks, blockSize = 256, 64
	data := payload(blockSize, 0x5A)
	allocs := func(ct bool) (read, write float64) {
		o := newNullORAM(t, blocks, blockSize, ct)
		addr := int64(0)
		next := func() int64 { addr = (addr + 97) % blocks; return addr }
		read = testing.AllocsPerRun(200, func() {
			if _, err := o.Read(next()); err != nil {
				t.Fatal(err)
			}
		})
		write = testing.AllocsPerRun(200, func() {
			if err := o.Write(next(), data); err != nil {
				t.Fatal(err)
			}
		})
		return read, write
	}
	defRead, defWrite := allocs(false)
	ctRead, ctWrite := allocs(true)
	t.Logf("allocs per access: default read %.0f write %.0f, constant-time read %.0f write %.0f", defRead, defWrite, ctRead, ctWrite)
	if ctRead > defRead+1 {
		t.Errorf("constant-time read allocates %.0f, default %.0f: more than the one Take copy", ctRead, defRead)
	}
	if ctWrite > defWrite+1 {
		t.Errorf("constant-time write allocates %.0f, default %.0f: more than the one Take copy", ctWrite, defWrite)
	}
}

// With no StashLimit the constant-time scan length is the number of
// real blocks the ORAM can hold — one copy per address — not the tree's
// slot count, and a full ORAM under random traffic stays within it and
// answers exactly like the default mode.
func TestConstantTimeStashCapacityIsBlocks(t *testing.T) {
	const blocks, blockSize = 128, 16
	oDef := newNullORAM(t, blocks, blockSize, false)
	oCT := newNullORAM(t, blocks, blockSize, true)
	if got := oCT.ct.Capacity(); got != blocks {
		t.Fatalf("constant-time stash capacity = %d, want Blocks = %d (tree has %d slots)", got, blocks, oCT.Geometry().Slots())
	}
	rng := blockcipher.NewRNGFromString("ctcost-traffic")
	for i := 0; i < 1000; i++ {
		addr := rng.Int63n(blocks)
		write := rng.Intn(2) == 0
		data := payload(blockSize, byte(i))
		var got [2][]byte
		for m, o := range []*ORAM{oDef, oCT} {
			var err error
			if write {
				got[m], err = o.Access(OpWrite, addr, data)
			} else {
				got[m], err = o.Access(OpRead, addr, nil)
			}
			if errors.As(err, new(stash.ErrFull)) {
				t.Fatalf("op %d: constant-time=%v: %v", i, o.ct != nil, err)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got[0], got[1]) {
			t.Fatalf("op %d (addr %d, write=%v): default returned %x, constant-time %x", i, addr, write, got[0], got[1])
		}
	}
	for a := int64(0); a < blocks; a++ {
		def, err := oDef.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := oCT.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(def, ct) {
			t.Fatalf("block %d: default %x, constant-time %x", a, def, ct)
		}
	}
	if oDef.StashPeak() != oCT.StashPeak() || oCT.StashPeak() > blocks {
		t.Fatalf("stash peak: default %d, constant-time %d, capacity %d", oDef.StashPeak(), oCT.StashPeak(), blocks)
	}
}

// BenchmarkConstantTimePath is constant-time paths at horam's memory
// tree geometry on the block_ct shard (a 124-slot tree of 20-slot
// paths, stash limit 62, the top half of the levels trusted, 512
// blocks), over NullSealer so the figure is the controller's own work.
// One iteration is one real read and three DummyAccess pads, the mix a
// lone request sees under the paper's c schedule; 48 blocks stay
// resident, about as many as a period ends with.
func BenchmarkConstantTimePath(b *testing.B) {
	for _, blockSize := range []int{64, 1024} {
		b.Run(fmt.Sprintf("block=%dB", blockSize), func(b *testing.B) {
			geom, err := oramtree.FitCapacity(128, 4)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{
				Blocks:       512,
				BlockSize:    blockSize,
				Z:            4,
				Capacity:     geom.Slots(),
				Sealer:       blockcipher.NullSealer{},
				RNG:          blockcipher.NewRNGFromString("pathoram-ctpath"),
				StashLimit:   int(geom.Slots() / 2),
				ConstantTime: true,
				Trusted:      (geom.Levels + 1) / 2,
			}
			dev, err := device.New(device.DRAM(), cfg.SlotSize(), geom.Slots()-geom.TopSlots(cfg.Trusted), simclock.New())
			if err != nil {
				b.Fatal(err)
			}
			o, err := New(cfg, dev)
			if err != nil {
				b.Fatal(err)
			}
			const resident = 48
			for a := int64(0); a < resident; a++ {
				if err := o.Insert(a, payload(blockSize, byte(a))); err != nil {
					b.Fatal(err)
				}
				if err := o.DummyAccess(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(blockSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Read(int64(i % resident)); err != nil {
					b.Fatal(err)
				}
				for d := 0; d < 3; d++ {
					if err := o.DummyAccess(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
