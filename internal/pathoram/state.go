package pathoram

import (
	"bytes"
	"fmt"

	"repro/internal/ctops"
	"repro/internal/record"
	"repro/internal/stash"
)

// ExportState returns the instance's control state for a snapshot: the
// position-map leaf table, copies of the stash contents, and the real
// block count. Real blocks held in the trusted top levels
// (Config.Trusted) are handed out as stash entries too, after the
// stash's own: a block may always sit in the stash instead of on its
// path, so ImportState restores them there and the snapshot format
// needs no field for the top. The rest of the tree lives on the device
// and is captured by the caller (raw reads of every device slot).
func (o *ORAM) ExportState() (leaves []int64, blocks []stash.Block, real int64, err error) {
	leaves = o.pm.Export()
	for _, addr := range o.stash.Addrs() {
		data, _ := o.stash.Get(addr)
		owned := make([]byte, len(data))
		copy(owned, data)
		blocks = append(blocks, stash.Block{Addr: addr, Data: owned})
	}
	for _, pt := range o.topPt {
		addr, data := o.codec.Decode(pt)
		if addr != record.DummyAddr {
			blocks = append(blocks, stash.Block{Addr: addr, Data: bytes.Clone(data)})
		}
	}
	return leaves, blocks, o.real, nil
}

// ImportState installs a previously Exported control state. The caller
// restores the device contents separately (raw writes of every slot)
// and first: ImportState rebuilds the trusted in-controller structures,
// and under ConstantTime the slot-leaf table is rebuilt from the
// restored image.
func (o *ORAM) ImportState(leaves []int64, blocks []stash.Block, real int64) error {
	if err := o.pm.Import(leaves); err != nil {
		return err
	}
	for _, b := range blocks {
		if err := o.checkAddr(b.Addr); err != nil {
			return err
		}
		if len(b.Data) != o.cfg.BlockSize {
			return fmt.Errorf("pathoram: import: block %d payload %d bytes, want %d", b.Addr, len(b.Data), o.cfg.BlockSize)
		}
		leaf, err := o.pm.Get(b.Addr)
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
	if o.ct != nil {
		return o.loadSlotLeaves()
	}
	return nil
}

// loadSlotLeaves rebuilds the constant-time slot-leaf table from what
// the tree holds now — the trusted top's plaintexts and the device
// image, read raw — and the position map. Every slot runs the same
// lookup, masked for a dummy, and the map answers it with its
// full-length scan, so which address sits in which slot shows in no
// memory-touch pattern.
//
//horam:constant-time
func (o *ORAM) loadSlotLeaves() error {
	sealed := o.pathSealed[0]
	for s := range o.slotLeaf {
		pt := o.pathPt[0]
		if int64(s) < o.top {
			pt = o.topPt[s]
		} else {
			slot := int64(s) - o.top
			err := o.dev.ReadRaw(slot, sealed)
			if err == nil {
				_, _, err = o.codec.OpenInto(pt, sealed)
			}
			if err != nil {
				return fmt.Errorf("pathoram: import: slot %d: %w", slot, err)
			}
		}
		addr, _ := o.codec.Decode(pt)
		real := ctops.Eq64(addr, record.DummyAddr) ^ 1
		leaf, err := o.pm.Get(ctops.Select64(real, addr, 0))
		if err != nil {
			return err
		}
		o.slotLeaf[s] = ctops.Select64(real, leaf, stash.NoLeaf)
	}
	return nil
}
