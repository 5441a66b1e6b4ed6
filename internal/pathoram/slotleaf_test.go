package pathoram

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/oramtree"
	"repro/internal/posmap"
	"repro/internal/record"
	"repro/internal/simclock"
	"repro/internal/stash"
)

// In both modes a block's leaf travels with it: slotLeaf holds it while
// the block sits in a tree slot, its stash entry while it sits in the
// stash, and eviction reads it from there instead of a position map.
// These tests pin that both copies always agree with the standalone
// ORAM's map, through a mixed stream and across an
// ExportState/ImportState restore onto a fresh device.

// newSlotLeafORAM builds an ORAM over trustedBlocks blocks, constant-time
// when ct is set, with k trusted levels on a fresh DRAM device sized
// for the rest.
func newSlotLeafORAM(t *testing.T, k int, ct bool) (*ORAM, *device.Sim) {
	t.Helper()
	cfg := testConfig(trustedBlocks, 32)
	cfg.ConstantTime = ct
	cfg.Trusted = k
	geom, err := oramtree.ForCapacity(2*cfg.Blocks, cfg.Z)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(device.DRAM(), cfg.SlotSize(), geom.Slots()-geom.TopSlots(k), simclock.New())
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	return o, dev
}

// checkSlotLeaves decodes every tree slot and the stash and checks the
// leaves they carry against the position map: a dummy record's slot
// holds NoLeaf, a real record's slot the map's leaf for its address,
// every stash entry the map's leaf, and every empty constant-time stash
// slot NoLeaf. HeldLeaves must report the same leaves.
func checkSlotLeaves(t *testing.T, o *ORAM, dev *device.Sim, when string) {
	t.Helper()
	pm := o.pm.Export()
	if got := len(o.slotLeaf); int64(got) != o.geom.Slots() {
		t.Fatalf("%s: slotLeaf has %d entries, tree has %d slots", when, got, o.geom.Slots())
	}
	sealed := make([]byte, dev.SlotSize())
	pt := make([]byte, o.codec.PtSize())
	inTree := int64(0)
	for s := int64(0); s < o.geom.Slots(); s++ {
		var addr int64
		if s < o.top {
			addr, _ = o.codec.Decode(o.topPt[s])
		} else {
			if err := dev.ReadRaw(s-o.top, sealed); err != nil {
				t.Fatal(err)
			}
			var err error
			if addr, _, err = o.codec.OpenInto(pt, sealed); err != nil {
				t.Fatal(err)
			}
		}
		want := stash.NoLeaf
		if addr != record.DummyAddr {
			want = pm[addr]
			inTree++
			if want == posmap.NoLeaf {
				t.Fatalf("%s: tree slot %d holds block %d, which the position map does not map", when, s, addr)
			}
		}
		if o.slotLeaf[s] != want {
			t.Fatalf("%s: tree slot %d (addr %d) carries leaf %d, want %d", when, s, addr, o.slotLeaf[s], want)
		}
	}
	var addrs, leaves []int64
	if o.ct != nil {
		addrs, leaves = o.ct.SnapshotAddrs(nil), o.ct.SnapshotLeaves(nil)
	} else {
		addrs = o.ms.Addrs()
		leaves = o.ms.AppendLeaves(nil, addrs)
	}
	for i, a := range addrs {
		want := stash.NoLeaf
		if i < o.stash.Len() {
			want = pm[a]
		}
		if leaves[i] != want {
			t.Fatalf("%s: stash slot %d (addr %d) carries leaf %d, want %d", when, i, a, leaves[i], want)
		}
	}
	if got := inTree + int64(o.stash.Len()); got != o.RealCount() {
		t.Fatalf("%s: %d blocks in the tree and stash, RealCount %d", when, got, o.RealCount())
	}
	held, err := o.HeldLeaves()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(held)) != o.RealCount() {
		t.Fatalf("%s: HeldLeaves reports %d blocks, RealCount %d", when, len(held), o.RealCount())
	}
	for a, leaf := range held {
		if leaf != pm[a] {
			t.Fatalf("%s: HeldLeaves gives block %d leaf %d, the map %d", when, a, leaf, pm[a])
		}
	}
}

// slotLeafModes runs f once per stash mode, as subtests of the current
// test named for the mode.
func slotLeafModes(t *testing.T, f func(t *testing.T, ct bool)) {
	for _, ct := range []bool{false, true} {
		name := "default"
		if ct {
			name = "constant-time"
		}
		t.Run(name, func(t *testing.T) { f(t, ct) })
	}
}

// slotLeafStream drives ops seeded operations through o — reads and
// writes over the low addresses, Inserts of non-resident high ones and
// DummyAccesses — checking every result against model and the leaves
// after every 25th operation.
func slotLeafStream(t *testing.T, o *ORAM, dev *device.Sim, model map[int64][]byte, seed string, ops int) {
	t.Helper()
	rng := blockcipher.NewRNGFromString(seed)
	bs := o.cfg.BlockSize
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			addr := rng.Int63n(48)
			data := payload(bs, byte(i+1))
			if err := o.Write(addr, data); err != nil {
				t.Fatalf("op %d: write %d: %v", i, addr, err)
			}
			model[addr] = data
		case 5, 6, 7:
			addr := rng.Int63n(o.cfg.Blocks)
			got, err := o.Read(addr)
			if err != nil {
				t.Fatalf("op %d: read %d: %v", i, addr, err)
			}
			want := model[addr]
			if want == nil {
				want = make([]byte, bs)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: read %d = %x, want %x", i, addr, got, want)
			}
		case 8:
			addr := 48 + rng.Int63n(o.cfg.Blocks-48)
			if has, err := o.Has(addr); err != nil || has {
				continue // Insert is for blocks the tree does not hold
			}
			data := payload(bs, byte(0x80|i))
			if err := o.Insert(addr, data); err != nil {
				t.Fatalf("op %d: insert %d: %v", i, addr, err)
			}
			model[addr] = data
		case 9:
			if err := o.DummyAccess(); err != nil {
				t.Fatal(err)
			}
		}
		if i%25 == 24 {
			checkSlotLeaves(t, o, dev, fmt.Sprintf("op %d", i))
		}
	}
}

// TestSlotLeafMatchesPositionMap: after a seeded stream in either mode,
// with no trusted levels and with half the tree's levels trusted, every
// tree slot and stash entry carries its block's position-map leaf.
func TestSlotLeafMatchesPositionMap(t *testing.T) {
	if stash.NoLeaf != posmap.NoLeaf {
		t.Fatalf("stash.NoLeaf %d, posmap.NoLeaf %d: stash leaves no longer compare with map leaves", stash.NoLeaf, posmap.NoLeaf)
	}
	levels := testGeometryLevels(t)
	for _, k := range []int{0, levels / 2} {
		t.Run(fmt.Sprintf("trusted=%d", k), func(t *testing.T) {
			slotLeafModes(t, func(t *testing.T, ct bool) {
				o, dev := newSlotLeafORAM(t, k, ct)
				checkSlotLeaves(t, o, dev, "fresh")
				slotLeafStream(t, o, dev, map[int64][]byte{}, "pathoram-slotleaf", 600)
				checkSlotLeaves(t, o, dev, "end of stream")
				if _, err := o.DrainAll(); err != nil {
					t.Fatal(err)
				}
				checkSlotLeaves(t, o, dev, "after DrainAll")
			})
		})
	}
}

// TestSlotLeafRebuiltOnImport restores an ORAM's exported state and
// device image, in either mode, into a fresh instance, the way a snapshot
// restore does (image first, then ImportState), and checks that the
// slot-leaf table is rebuilt from the image — not left empty, which
// would strand every tree block in the stash once its path is read —
// and stays right as the restored instance keeps serving.
func TestSlotLeafRebuiltOnImport(t *testing.T) {
	levels := testGeometryLevels(t)
	for _, k := range []int{0, levels / 2} {
		t.Run(fmt.Sprintf("trusted=%d", k), func(t *testing.T) {
			slotLeafModes(t, func(t *testing.T, ct bool) {
				o, dev := newSlotLeafORAM(t, k, ct)
				model := map[int64][]byte{}
				slotLeafStream(t, o, dev, model, "pathoram-slotleaf/before", 300)
				leaves, blocks, real, err := o.ExportState()
				if err != nil {
					t.Fatal(err)
				}

				r, rdev := newSlotLeafORAM(t, k, ct)
				buf := make([]byte, dev.SlotSize())
				for s := int64(0); s < dev.Slots(); s++ {
					if err := dev.ReadRaw(s, buf); err != nil {
						t.Fatal(err)
					}
					if err := rdev.WriteRaw(s, buf); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.ImportState(leaves, blocks, real); err != nil {
					t.Fatal(err)
				}
				checkSlotLeaves(t, r, rdev, "after ImportState")
				slotLeafStream(t, r, rdev, model, "pathoram-slotleaf/after", 300)
				checkSlotLeaves(t, r, rdev, "end of restored stream")
			})
		})
	}
}

// TestTreeLeafDrawUniform: the leaf a Tree hands back for a remapped
// block is uniform over the tree's leaves (chi-squared at 99.9 %),
// whichever mode draws it — the remap-on-access Path ORAM's security
// rests on.
func TestTreeLeafDrawUniform(t *testing.T) {
	slotLeafModes(t, func(t *testing.T, ct bool) {
		o, _ := newSlotLeafORAM(t, 0, ct)
		nLeaf := o.geom.Leaves()
		trials := 1000 * nLeaf
		counts := make([]int64, nLeaf)
		data := payload(o.cfg.BlockSize, 1)
		leaf := stash.NoLeaf
		for i := int64(0); i < trials; i++ {
			var err error
			// The block stays in the stash, so every Insert remaps it.
			if leaf, err = o.Tree.Insert(5, leaf, data); err != nil {
				t.Fatal(err)
			}
			counts[leaf]++
		}
		expected := float64(trials) / float64(nLeaf)
		var chi2 float64
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		// Wilson–Hilferty 99.9 % quantile of chi-squared, nLeaf−1 dof.
		k := float64(nLeaf - 1)
		q := k * math.Pow(1-2/(9*k)+3.09*math.Sqrt(2/(9*k)), 3)
		if chi2 > q {
			t.Fatalf("leaf draw chi2 = %.2f over %d leaves (99.9 %% bound %.2f), counts %v", chi2, nLeaf, q, counts)
		}
	})
}
