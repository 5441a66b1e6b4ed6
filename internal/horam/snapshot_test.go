package horam

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/posmap"
	"repro/internal/record"
)

// TestSnapshotCarriesTrustedTopBlocks captures a shard mid-period while
// real blocks sit in the memory tree's controller-held top levels. The
// snapshot format has no field for them: ExportState hands them out as
// stash entries, and the restored instance must serve every block. An image from before the top moved into the controller (its
// MemSlots the whole tree) must be refused, not misread.
func TestSnapshotCarriesTrustedTopBlocks(t *testing.T) {
	for _, ct := range []bool{false, true} {
		t.Run(fmt.Sprintf("constantTime=%v", ct), func(t *testing.T) {
			cfg := ctGeometry(ct)
			o, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			geom := o.mem.Geometry()
			if top := geom.Slots() - o.Mem().Slots(); top != 12 {
				t.Fatalf("memory device is %d slots short of the tree, want 12 (two trusted levels of Z=4)", top)
			}

			rng := blockcipher.NewRNGFromString("horam-trusted-snapshot")
			model := make(map[int64][]byte)
			for batch := 0; ; batch++ {
				if batch > 2000 {
					t.Fatal("never captured mid-period with a block in the trusted top")
				}
				var reqs []*Request
				for i := 0; i < 4; i++ {
					r := &Request{Op: OpRead, Addr: rng.Int63n(cfg.Blocks)}
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
				midPeriod := o.Stats().Shuffles >= 1 && !o.ShufflePending() && o.missCount > 0
				if !midPeriod {
					continue
				}
				if trustedTopHeld(t, o) > 0 {
					break
				}
			}

			snap, err := o.CaptureSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := int64(len(snap.StashAddrs)), int64(o.mem.StashLen())+trustedTopHeld(t, o); got != want {
				t.Fatalf("snapshot carries %d stash entries, want the stash's and the trusted top's %d", got, want)
			}
			rcfg := cfg
			rcfg.RNG = blockcipher.NewRNGFromString("horam-trusted-snapshot/restored")

			// The image a shard wrote before the top moved into the
			// controller: the whole tree on the memory device.
			old := *snap
			old.MemSlots = geom.Slots()
			old.MemImage = append(make([][]byte, geom.Slots()-snap.MemSlots), snap.MemImage...)
			for i := range old.MemImage[:geom.Slots()-snap.MemSlots] {
				old.MemImage[i] = make([]byte, snap.SlotSize)
			}
			rcfg.Storage = copyStorage(o.Stor())
			if _, err := Restore(rcfg, &old); err == nil || !strings.Contains(err.Error(), "memory slots") {
				t.Fatalf("restore of a whole-tree memory image: err %v, want the memory slots geometry error", err)
			}

			rcfg.Storage = copyStorage(o.Stor())
			r, err := Restore(rcfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			// Every address, not only the written ones (a block fetched
			// by a read sits in the tree too, holding zeros), and the
			// memory tier's first: a shuffle would refill a lost
			// read-only block from its stale storage copy.
			var order []int64
			for _, memory := range []bool{true, false} {
				for addr := int64(0); addr < cfg.Blocks; addr++ {
					if (snap.PermTier[addr] == uint8(posmap.TierMemory)) == memory {
						order = append(order, addr)
					}
				}
			}
			for _, addr := range order {
				got, err := r.Read(addr)
				if err != nil {
					t.Fatal(err)
				}
				want := model[addr]
				if want == nil {
					want = make([]byte, cfg.BlockSize)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("block %d = %x, want %x", addr, got, want)
				}
			}
		})
	}
}

// trustedTopHeld counts the real blocks o's memory tree holds in its
// controller-side top levels: those neither in the stash nor in a
// record on the memory device.
func trustedTopHeld(t *testing.T, o *ORAM) int64 {
	t.Helper()
	onDevice := int64(0)
	sealed := make([]byte, o.cfg.SlotSize())
	pt := make([]byte, o.codec.PtSize())
	for slot := int64(0); slot < o.memDev.Slots(); slot++ {
		if err := o.memDev.ReadRaw(slot, sealed); err != nil {
			t.Fatal(err)
		}
		addr, _, err := o.codec.OpenInto(pt, sealed)
		if err != nil {
			t.Fatal(err)
		}
		if addr != record.DummyAddr {
			onDevice++
		}
	}
	return o.mem.RealCount() - int64(o.mem.StashLen()) - onDevice
}
