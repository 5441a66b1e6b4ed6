package horam

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/posmap"
)

// The permutation list holds each memory-tier block's leaf in the
// memory tree, and the tree keeps no position map of its own. These
// tests pin that the list and the tree agree, that a hit reads the leaf
// the list holds when it is served, and that a restore refuses a
// snapshot whose tiers and leaves disagree.

// leafModes runs fn once per controller mode, default and
// constant-time, as subtests.
func leafModes(t *testing.T, fn func(t *testing.T, constantTime bool)) {
	for _, ct := range []bool{false, true} {
		t.Run(fmt.Sprintf("constantTime=%v", ct), func(t *testing.T) { fn(t, ct) })
	}
}

// devicePath returns the memory-device slots of the path to leaf, root
// first, leaving out the levels the controller holds.
func devicePath(o *ORAM, leaf int64) []int64 {
	geom := o.mem.Geometry()
	top := geom.TopSlots((geom.Levels + 1) / 2)
	var slots []int64
	for _, bucket := range geom.Path(leaf) {
		base := geom.SlotBase(bucket) - top
		for z := int64(0); z < int64(geom.Z); z++ {
			if base+z >= 0 {
				slots = append(slots, base+z)
			}
		}
	}
	return slots
}

// checkListLeaves checks that the permutation list and the memory tree
// agree: the tree holds exactly the memory-tier blocks, each with the
// leaf its list entry records.
func checkListLeaves(t *testing.T, o *ORAM, when string) {
	t.Helper()
	held, err := o.mem.HeldLeaves()
	if err != nil {
		t.Fatal(err)
	}
	entries := o.perm.Export()
	memory := 0
	for a, e := range entries {
		if e.Tier != posmap.TierMemory {
			if leaf, ok := held[int64(a)]; ok {
				t.Fatalf("%s: the tree holds block %d (leaf %d), which the list puts in the %v tier", when, a, leaf, e.Tier)
			}
			continue
		}
		memory++
		leaf, ok := held[int64(a)]
		if !ok {
			t.Fatalf("%s: block %d is memory-tier at leaf %d, but the tree does not hold it", when, a, e.Slot)
		}
		if leaf != e.Slot {
			t.Fatalf("%s: block %d: the list records leaf %d, the tree holds it at leaf %d", when, a, e.Slot, leaf)
		}
	}
	if memory != len(held) {
		t.Fatalf("%s: %d memory-tier entries, the tree holds %d blocks", when, memory, len(held))
	}
}

// TestListLeavesMatchTree drives a seeded read/write stream across
// several shuffle periods in both modes and checks after every batch —
// mid-shuffle included — that every memory-tier entry's leaf is the
// leaf the tree holds for that block, in its stash entry or its slot.
func TestListLeavesMatchTree(t *testing.T) {
	leafModes(t, func(t *testing.T, ct bool) {
		cfg := testConfig(144, 16, 60)
		cfg.ConstantTime = ct
		o, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := blockcipher.NewRNGFromString("horam-list-leaves")
		model := map[int64][]byte{}
		for batch := 0; o.Stats().Shuffles < 3; batch++ {
			if batch == 400 {
				t.Fatalf("only %d shuffles after %d batches", o.Stats().Shuffles, batch)
			}
			var reqs []*Request
			for i := 0; i < 6; i++ {
				// A hot quarter of the addresses keeps hits coming.
				addr := rng.Int63n(cfg.Blocks)
				if rng.Intn(2) == 0 {
					addr %= cfg.Blocks / 4
				}
				if rng.Intn(2) == 0 {
					data := fill(cfg.BlockSize, byte(batch*6+i+1))
					reqs = append(reqs, &Request{Op: OpWrite, Addr: addr, Data: data})
					continue
				}
				reqs = append(reqs, &Request{Op: OpRead, Addr: addr})
			}
			// Expected results in queue order: reads see every earlier
			// write of the batch.
			want := make([][]byte, len(reqs))
			for i, r := range reqs {
				want[i] = model[r.Addr]
				if want[i] == nil {
					want[i] = make([]byte, cfg.BlockSize)
				}
				if r.Op == OpWrite {
					model[r.Addr] = r.Data
				}
			}
			if err := o.RunBatch(reqs); err != nil {
				t.Fatal(err)
			}
			for i, r := range reqs {
				if !bytes.Equal(r.Result, want[i]) {
					t.Fatalf("batch %d request %d (addr %d): result %x, want %x", batch, i, r.Addr, r.Result, want[i])
				}
			}
			checkListLeaves(t, o, fmt.Sprintf("batch %d", batch))
		}
	})
}

// TestRepeatedHitReadsFreshPath queues one memory-resident address at
// three window positions of a c = 3 cycle. The first hit remaps the
// block, so the window scan's entry is stale by the time the second
// hit is served: each hit must read the path of the leaf the list
// holds when it is served, not the path the scan saw — re-reading the
// first hit's path would show the adversary a repeat. The batch must
// also read its own writes.
func TestRepeatedHitReadsFreshPath(t *testing.T) {
	leafModes(t, func(t *testing.T, ct bool) {
		cfg := testConfig(144, 16, 60)
		cfg.ConstantTime = ct
		cfg.Stages = []Stage{{C: 3, Frac: 1}}
		o, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const addr = 9
		v0 := fill(cfg.BlockSize, 0x10)
		if err := o.Write(addr, v0); err != nil {
			t.Fatal(err)
		}
		wantTier(t, o, addr, posmap.TierMemory)

		// Each memory-device read, with the leaf the list held for addr
		// at that moment. Hits run before pads, and one path read
		// covers len(devicePath) slots, so the cycle's first three
		// paths are the three hits.
		type read struct{ slot, listLeaf int64 }
		var reads []read
		o.memDev.SetHook(func(_ string, op device.Op, slot int64) {
			if op != device.OpRead {
				return
			}
			leaf, err := o.perm.Leaf(addr)
			if err != nil {
				panic(err)
			}
			reads = append(reads, read{slot, leaf})
		})
		v1, v2 := fill(cfg.BlockSize, 0x21), fill(cfg.BlockSize, 0x32)
		reqs := []*Request{
			{Op: OpWrite, Addr: addr, Data: v1},
			{Op: OpRead, Addr: addr},
			{Op: OpWrite, Addr: addr, Data: v2},
		}
		cycles := o.Stats().Cycles
		if err := o.RunBatch(reqs); err != nil {
			t.Fatal(err)
		}
		o.memDev.SetHook(nil)
		if got := o.Stats().Cycles - cycles; got != 1 {
			t.Fatalf("batch ran %d cycles, want the one that serves all three hits", got)
		}
		for i, want := range [][]byte{v0, v1, v1} {
			if !bytes.Equal(reqs[i].Result, want) {
				t.Fatalf("request %d result %x, want %x", i, reqs[i].Result, want)
			}
		}
		if got, err := o.Read(addr); err != nil || !bytes.Equal(got, v2) {
			t.Fatalf("read after the batch = %x, %v; want %x", got, err, v2)
		}

		pathLen := len(devicePath(o, 0))
		if len(reads) < 3*pathLen {
			t.Fatalf("%d memory-device reads, want at least three paths of %d", len(reads), pathLen)
		}
		for h := 0; h < 3; h++ {
			path := reads[h*pathLen : (h+1)*pathLen]
			leaf := path[0].listLeaf
			got := make([]int64, pathLen)
			for i, r := range path {
				got[i] = r.slot
			}
			if want := devicePath(o, leaf); !slices.Equal(got, want) {
				t.Fatalf("hit %d read slots %v; the list held leaf %d, whose path is %v", h, got, leaf, want)
			}
		}
	})
}

// TestRestoreRefusesLeafTierMismatch: a snapshot's leaf column must
// agree with its tiers. A memory-tier address needs a leaf of the
// tree — not NoLeaf, not one past the last — and a storage-tier address
// must have none. The unmodified snapshot restores.
func TestRestoreRefusesLeafTierMismatch(t *testing.T) {
	cfg := testConfig(144, 16, 60)
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for a := int64(0); a < 10; a++ {
		if err := o.Write(a, fill(cfg.BlockSize, byte(a+1))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := o.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	mem, stor := -1, -1
	for a, tier := range snap.PermTier {
		switch {
		case posmap.Tier(tier) == posmap.TierMemory && mem < 0:
			mem = a
		case posmap.Tier(tier) == posmap.TierStorage && stor < 0:
			stor = a
		}
	}
	if mem < 0 || stor < 0 {
		t.Fatalf("snapshot has no memory-tier (%d) or no storage-tier (%d) address", mem, stor)
	}
	rcfg := testConfig(144, 16, 60)
	rcfg.Storage = copyStorage(o.Stor())
	r, err := Restore(rcfg, snap)
	if err != nil {
		t.Fatalf("unmodified snapshot refused: %v", err)
	}
	if got, err := r.Read(int64(mem)); err != nil || !bytes.Equal(got, fill(cfg.BlockSize, byte(mem+1))) {
		t.Fatalf("restored read of memory-tier block %d = %x, %v", mem, got, err)
	}

	nLeaf := o.mem.Geometry().Leaves()
	for _, c := range []struct {
		name string
		addr int
		leaf int64
		want string
	}{
		{"memory tier without a leaf", mem, posmap.NoLeaf, "memory-tier address"},
		{"memory tier past the last leaf", mem, nLeaf, "memory-tier address"},
		{"storage tier with a leaf", stor, 0, "storage-tier address"},
	} {
		bad := *snap
		bad.Leaves = slices.Clone(snap.Leaves)
		bad.Leaves[c.addr] = c.leaf
		_, err := Restore(testConfig(144, 16, 60), &bad)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Restore err = %v, want a %q refusal", c.name, err, c.want)
		}
	}
}
