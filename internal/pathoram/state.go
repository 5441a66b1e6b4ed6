package pathoram

import (
	"bytes"
	"fmt"

	"repro/internal/ctops"
	"repro/internal/record"
	"repro/internal/stash"
)

// ExportState returns the tree's control state for a snapshot: copies
// of the stash contents and the real block count. Real blocks held in
// the trusted top levels (Config.Trusted) are handed out as stash
// entries too, after the stash's own: a block may always sit in the
// stash instead of on its path, so ImportState restores them there and
// the snapshot format needs no field for the top. The leaves are the
// caller's to save, and the rest of the tree lives on the device and
// is captured by the caller (raw reads of every device slot).
func (o *Tree) ExportState() (blocks []stash.Block, real int64) {
	for _, addr := range o.stash.Addrs() {
		data, _ := o.stash.Get(addr)
		blocks = append(blocks, stash.Block{Addr: addr, Data: bytes.Clone(data)})
	}
	for _, pt := range o.topPt {
		addr, data := o.codec.Decode(pt)
		if addr != record.DummyAddr {
			blocks = append(blocks, stash.Block{Addr: addr, Data: bytes.Clone(data)})
		}
	}
	return blocks, o.real
}

// ImportState installs a previously exported control state; leafOf
// answers each held block's leaf from the caller's restored record of
// them. The caller restores the device contents separately (raw writes
// of every slot) and first: ImportState rebuilds the trusted
// in-controller structures, the slot-leaf table from the restored
// image.
func (o *Tree) ImportState(leafOf func(addr int64) (int64, error), blocks []stash.Block, real int64) error {
	for _, b := range blocks {
		if err := o.checkAddr(b.Addr); err != nil {
			return err
		}
		if len(b.Data) != o.cfg.BlockSize {
			return fmt.Errorf("pathoram: import: block %d payload %d bytes, want %d", b.Addr, len(b.Data), o.cfg.BlockSize)
		}
		leaf, err := leafOf(b.Addr)
		if err != nil {
			return err
		}
		if err := o.stashPut(b.Addr, leaf, b.Data); err != nil {
			return err
		}
	}
	if real < 0 || real > o.Capacity() {
		return fmt.Errorf("pathoram: import: real count %d out of [0,%d]", real, o.Capacity())
	}
	o.real = real
	return o.loadSlotLeaves(leafOf)
}

// loadSlotLeaves rebuilds the slot-leaf table from what the tree holds
// now — the trusted top's plaintexts and the device image, read raw —
// and leafOf. Every slot runs the same lookup, masked for a dummy, so
// under ConstantTime, where leafOf is a full-length scan, which
// address sits in which slot shows in no memory-touch pattern.
//
//horam:constant-time
func (o *Tree) loadSlotLeaves(leafOf func(addr int64) (int64, error)) error {
	for s := range o.slotLeaf {
		pt, err := o.slotPlaintext(int64(s))
		if err != nil {
			return err
		}
		addr, _ := o.codec.Decode(pt)
		real := ctops.Eq64(addr, record.DummyAddr) ^ 1
		leaf, err := leafOf(ctops.Select64(real, addr, 0))
		if err != nil {
			return err
		}
		o.slotLeaf[s] = ctops.Select64(real, leaf, stash.NoLeaf)
	}
	return nil
}

// slotPlaintext returns the plaintext record in tree slot s: the
// trusted top's, or the device slot opened from a raw read into path
// scratch.
func (o *Tree) slotPlaintext(s int64) ([]byte, error) {
	if s < o.top {
		return o.topPt[s], nil
	}
	pt := o.pathPt[0]
	err := o.dev.ReadRaw(s-o.top, o.pathSealed[0])
	if err == nil {
		_, _, err = o.codec.OpenInto(pt, o.pathSealed[0])
	}
	if err != nil {
		return nil, fmt.Errorf("pathoram: import: slot %d: %w", s-o.top, err)
	}
	return pt, nil
}

// HeldLeaves returns, keyed by address, the leaf the tree holds for
// every block it holds: the leaf its stash entry carries, or the slot
// leaf of the tree slot it sits in. It opens every device slot with a
// raw read, so it audits the leaf records; no access path calls it.
func (o *Tree) HeldLeaves() (map[int64]int64, error) {
	out := make(map[int64]int64)
	for s, leaf := range o.slotLeaf {
		pt, err := o.slotPlaintext(int64(s))
		if err != nil {
			return nil, err
		}
		if addr, _ := o.codec.Decode(pt); addr != record.DummyAddr {
			out[addr] = leaf
		}
	}
	var addrs, leaves []int64
	if o.ct != nil {
		addrs = o.ct.SnapshotAddrs(nil)[:o.ct.Len()]
		leaves = o.ct.SnapshotLeaves(nil)
	} else {
		addrs = o.ms.Addrs()
		leaves = o.ms.AppendLeaves(nil, addrs)
	}
	for i, a := range addrs {
		out[a] = leaves[i]
	}
	return out, nil
}

// ExportState returns the standalone ORAM's control state for a
// snapshot: the position-map leaf table beside the tree's state (see
// Tree.ExportState).
func (o *ORAM) ExportState() (leaves []int64, blocks []stash.Block, real int64, err error) {
	blocks, real = o.Tree.ExportState()
	return o.pm.Export(), blocks, real, nil
}

// ImportState installs a previously exported control state: the
// position map, then the tree's (see Tree.ImportState), whose leaves
// the map answers.
func (o *ORAM) ImportState(leaves []int64, blocks []stash.Block, real int64) error {
	if err := o.pm.Import(leaves); err != nil {
		return err
	}
	return o.Tree.ImportState(o.pm.Get, blocks, real)
}
