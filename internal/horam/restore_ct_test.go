package horam

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/record"
)

// memTreeView renders what o's memory tree holds, one line per part:
// the record address in every occupied device slot, the leaf the
// permutation list records for every address, and the blocks
// ExportState hands out (the stash's, then the trusted
// top's in slot order) with their payloads. Two instances that made the
// same eviction choices render the same lines.
func memTreeView(t *testing.T, o *ORAM) []string {
	t.Helper()
	var slots bytes.Buffer
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
			fmt.Fprintf(&slots, " %d:%d", slot, addr)
		}
	}
	leaves := make([]int64, o.cfg.Blocks)
	for a := range leaves {
		leaf, err := o.perm.Leaf(int64(a))
		if err != nil {
			t.Fatal(err)
		}
		leaves[a] = leaf
	}
	blocks, real := o.mem.ExportState()
	var held bytes.Buffer
	for _, blk := range blocks {
		fmt.Fprintf(&held, " %d=%x", blk.Addr, blk.Data)
	}
	return []string{
		"device slot:addr" + slots.String(),
		fmt.Sprintf("memory-tier leaves %v", leaves),
		fmt.Sprintf("real %d, stash and trusted top%s", real, held.String()),
	}
}

// TestConstantTimeRestoreMatchesTwins snapshots a constant-time H-ORAM
// mid-period, restores it, and keeps serving until the period ends and
// the evict phase has taken every block out of the memory tree again.
// Three twins run the same batches: the restored constant-time
// instance, a constant-time one that never restores, and a
// default-mode one restored from its own snapshot with the same fresh
// RNG. After every batch all three must return the same results, and
// the two restored twins — whose bus traffic is identical by the CT
// parity contract — must hold the same tree: the same record in every
// memory slot, the same memory-tier leaves and the same stash. A restore
// that left the constant-time slot leaves unset would absorb every
// restored tree block with no leaf and never evict it, so the first
// path read after the restore would already split the two trees. (The
// never-restored twin draws its leaves from its own RNG stream, so only
// its results are compared.)
func TestConstantTimeRestoreMatchesTwins(t *testing.T) {
	ctR, err := New(ctGeometry(true))
	if err != nil {
		t.Fatal(err)
	}
	ctT, err := New(ctGeometry(true))
	if err != nil {
		t.Fatal(err)
	}
	defR, err := New(ctGeometry(false))
	if err != nil {
		t.Fatal(err)
	}
	twins := []*ORAM{ctR, ctT, defR}
	blocks := ctR.cfg.Blocks
	bs := ctR.cfg.BlockSize

	restore := func(o *ORAM, ct bool) *ORAM {
		t.Helper()
		snap, err := o.CaptureSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		rcfg := ctGeometry(ct)
		rcfg.RNG = blockcipher.NewRNGFromString("horam-ct-restore/restored")
		rcfg.Storage = copyStorage(o.Stor())
		r, err := Restore(rcfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	rng := blockcipher.NewRNGFromString("horam-ct-restore")
	model := make(map[int64][]byte)
	restoredAt := int64(-1)
	for batch := 0; ; batch++ {
		if batch > 3000 {
			t.Fatalf("no period boundary after the restore within %d batches", batch)
		}
		var shape []Request
		for i := 0; i < 4; i++ {
			addr := rng.Int63n(blocks)
			if rng.Intn(5) != 0 {
				addr = rng.Int63n(24) // hot set, so blocks linger in the tree
			}
			r := Request{Op: OpRead, Addr: addr}
			if rng.Intn(2) == 0 {
				r.Op, r.Data = OpWrite, fill(bs, byte(batch+i))
			}
			shape = append(shape, r)
		}
		var results [][][]byte
		for _, o := range twins {
			reqs := make([]*Request, len(shape))
			for i := range shape {
				r := shape[i]
				reqs[i] = &r
			}
			if err := o.RunBatch(reqs); err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			for _, r := range reqs {
				got = append(got, r.Result)
			}
			results = append(results, got)
		}
		for i, r := range shape {
			want := model[r.Addr]
			if want == nil {
				want = make([]byte, bs)
			}
			for k, got := range results {
				if !bytes.Equal(got[i], want) {
					t.Fatalf("batch %d: twin %d: request %d on block %d = %x, want %x", batch, k, i, r.Addr, got[i], want)
				}
			}
			if r.Op == OpWrite {
				model[r.Addr] = r.Data
			}
		}

		if restoredAt < 0 {
			if ctR.Stats().Shuffles >= 1 && !ctR.ShufflePending() && ctR.missCount >= ctR.MissBudget()/2 {
				restoredAt = ctR.Stats().Shuffles
				ctR, defR = restore(ctR, true), restore(defR, false)
				twins[0], twins[2] = ctR, defR
				if ctR.mem.RealCount() == 0 {
					t.Fatal("restored with an empty memory tree")
				}
			}
			continue
		}
		got, want := memTreeView(t, ctR), memTreeView(t, defR)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("batch %d after the restore: trees differ\nconstant-time: %.400s\ndefault mode:  %.400s", batch, got[i], want[i])
			}
		}
		if ctR.Stats().Shuffles > restoredAt && !ctR.ShufflePending() {
			break
		}
	}
}
