package pathoram

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/posmap"
	"repro/internal/record"
	"repro/internal/stash"
)

// ErrNotExportable is returned by ExportState when the position map is
// not the in-controller posmap.PositionMap (the recursive construction
// stores positions inside other ORAMs, which snapshot as devices, not
// as a leaf table).
var ErrNotExportable = errors.New("pathoram: position store is not exportable")

// ExportState returns the instance's control state for a snapshot: the
// position-map leaf table, copies of the stash contents, and the real
// block count. Real blocks held in the trusted top levels
// (Config.Trusted) are handed out as stash entries too, after the
// stash's own: a block may always sit in the stash instead of on its
// path, so ImportState restores them there and the snapshot format
// needs no field for the top. The rest of the tree lives on the device
// and is captured by the caller (raw reads of every device slot).
func (o *ORAM) ExportState() (leaves []int64, blocks []stash.Block, real int64, err error) {
	pm, ok := o.pm.(*posmap.PositionMap)
	if !ok {
		return nil, nil, 0, ErrNotExportable
	}
	leaves = pm.Export()
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
// restores the device contents separately (raw writes of every slot);
// ImportState only rebuilds the trusted in-controller structures.
func (o *ORAM) ImportState(leaves []int64, blocks []stash.Block, real int64) error {
	pm, ok := o.pm.(*posmap.PositionMap)
	if !ok {
		return ErrNotExportable
	}
	if err := pm.Import(leaves); err != nil {
		return err
	}
	for _, b := range blocks {
		if err := o.checkAddr(b.Addr); err != nil {
			return err
		}
		if len(b.Data) != o.cfg.BlockSize {
			return fmt.Errorf("pathoram: import: block %d payload %d bytes, want %d", b.Addr, len(b.Data), o.cfg.BlockSize)
		}
		owned := make([]byte, len(b.Data))
		copy(owned, b.Data)
		if err := o.stash.Put(b.Addr, owned); err != nil {
			return err
		}
	}
	if real < 0 || real > o.Capacity() {
		return fmt.Errorf("pathoram: import: real count %d out of [0,%d]", real, o.Capacity())
	}
	o.real = real
	return nil
}
