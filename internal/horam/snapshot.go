package horam

import (
	"fmt"
	"time"

	"repro/internal/posmap"
	"repro/internal/snapshot"
	"repro/internal/stash"
)

// CaptureSnapshot serialises the control state a restart must recover:
// the permutation list — its memory-tier leaves saved as the snapshot's
// leaf column — the memory tree's stash, the
// sealed memory-tree device image (the memory tier is volatile DRAM;
// the storage tier is durable in its own backing file and is NOT
// captured), and the scheduler/miss-budget counters. The instance must
// be quiescent — an empty reorder buffer — so the image sits at a
// cycle boundary; internal/engine additionally levels shards first so
// a multi-shard image is taken at cross-shard-equal cycle counts.
//
// A quiesce that lands mid-shuffle — the incremental state machine
// still holds pending quanta — first drives the shuffle to completion
// (FinishShuffle), so the image always sits at a period boundary and
// the existing generation-marker protocol covers it; the mid-flight
// trusted pool is never persisted.
//
// The caller owns sealing and the key-derivation Epoch field: the
// stash rides in plaintext inside the returned struct.
func (o *ORAM) CaptureSnapshot() (*snapshot.Shard, error) {
	if o.poisoned != nil {
		return nil, o.poisoned
	}
	if len(o.rob) > 0 {
		return nil, fmt.Errorf("horam: snapshot with %d requests still queued", len(o.rob))
	}
	if o.inShuffle {
		return nil, fmt.Errorf("horam: snapshot during a shuffle period")
	}
	if err := o.FinishShuffle(); err != nil {
		return nil, err
	}
	stashBlocks, real := o.mem.ExportState()
	s := &snapshot.Shard{
		Blocks:     o.cfg.Blocks,
		BlockSize:  o.cfg.BlockSize,
		SlotSize:   o.cfg.SlotSize(),
		MemSlots:   o.memDev.Slots(),
		Partitions: o.partitions,
		PartSlots:  o.partSlots,
		MissBudget: o.missBudget,
		MissCount:  o.missCount,
		NextPart:   o.nextPart,
		ShuffleGen: o.shuffleGen,
		Stats: snapshot.Counters{
			Requests:      o.stats.Requests,
			Cycles:        o.stats.Cycles,
			Misses:        o.stats.Misses,
			Hits:          o.stats.Hits,
			DummyIO:       o.stats.DummyIO,
			DummyMemory:   o.stats.DummyMemory,
			Shuffles:      o.stats.Shuffles,
			PartShuffled:  o.stats.PartShuffled,
			EvictedReal:   o.stats.EvictedReal,
			ShuffleQuanta: o.stats.ShuffleQuanta,
			MaxCycleNanos: int64(o.stats.MaxCycleTime),
		},
		RealCount: real,
	}
	entries := o.perm.Export()
	s.PermTier = make([]uint8, len(entries))
	s.PermSlot = make([]int64, len(entries))
	s.PermTouched = make([]bool, len(entries))
	s.Leaves = make([]int64, len(entries))
	for i, e := range entries {
		s.PermTier[i] = uint8(e.Tier)
		s.PermSlot[i] = e.Slot
		s.PermTouched[i] = e.Touched
		s.Leaves[i] = posmap.NoLeaf
		if e.Tier == posmap.TierMemory {
			s.PermSlot[i], s.Leaves[i] = 0, e.Slot
		}
	}
	for _, b := range stashBlocks {
		s.StashAddrs = append(s.StashAddrs, b.Addr)
		s.StashData = append(s.StashData, b.Data)
	}
	s.MemImage = make([][]byte, s.MemSlots)
	for slot := int64(0); slot < s.MemSlots; slot++ {
		buf := make([]byte, s.SlotSize)
		if err := o.memDev.ReadRaw(slot, buf); err != nil {
			return nil, err
		}
		s.MemImage[slot] = buf
	}
	return s, nil
}

// Restore rebuilds an instance from a snapshot taken by
// CaptureSnapshot. cfg must describe the same geometry and key
// material as the instance that was captured; the storage tier — via
// cfg.Storage — must already hold the generation the snapshot was
// taken at (the core layer checks the on-disk generation marker before
// calling here). The sealer and RNG in cfg should be derived with a
// fresh epoch so no randomness replays across the restart.
func Restore(cfg Config, s *snapshot.Shard) (*ORAM, error) {
	o, err := construct(cfg)
	if err != nil {
		return nil, err
	}
	if err := o.checkGeometry(s); err != nil {
		o.CloseStorage()
		return nil, err
	}
	if err := o.install(s); err != nil {
		o.CloseStorage()
		return nil, err
	}
	return o, nil
}

// checkGeometry refuses a snapshot whose instance shape differs from
// the rebuilt configuration's in any way that would scramble data.
func (o *ORAM) checkGeometry(s *snapshot.Shard) error {
	type dim struct {
		name      string
		got, want int64
	}
	dims := []dim{
		{"Blocks", o.cfg.Blocks, s.Blocks},
		{"BlockSize", int64(o.cfg.BlockSize), int64(s.BlockSize)},
		{"SlotSize", int64(o.cfg.SlotSize()), int64(s.SlotSize)},
		{"memory slots", o.memDev.Slots(), s.MemSlots},
		{"partitions", o.partitions, s.Partitions},
		{"partition slots", o.partSlots, s.PartSlots},
		{"miss budget", o.missBudget, s.MissBudget},
	}
	for _, d := range dims {
		if d.got != d.want {
			return fmt.Errorf("horam: restore geometry mismatch: config %s %d, snapshot %d", d.name, d.got, d.want)
		}
	}
	if int64(len(s.PermTier)) != s.Blocks || int64(len(s.PermSlot)) != s.Blocks ||
		int64(len(s.PermTouched)) != s.Blocks || int64(len(s.Leaves)) != s.Blocks {
		return fmt.Errorf("horam: restore: control tables sized %d/%d/%d/%d, want %d",
			len(s.PermTier), len(s.PermSlot), len(s.PermTouched), len(s.Leaves), s.Blocks)
	}
	if int64(len(s.MemImage)) != s.MemSlots {
		return fmt.Errorf("horam: restore: memory image has %d slots, want %d", len(s.MemImage), s.MemSlots)
	}
	if len(s.StashAddrs) != len(s.StashData) {
		return fmt.Errorf("horam: restore: %d stash addresses but %d payloads", len(s.StashAddrs), len(s.StashData))
	}
	return nil
}

// install writes the snapshot's state into a freshly built skeleton.
// A memory-tier entry takes its leaf from the leaf column; an entry
// whose tier and leaf disagree — a memory-tier block with no tree leaf,
// a storage-tier block with one — is refused here, before the first
// access to it fails on the wrong path.
func (o *ORAM) install(s *snapshot.Shard) error {
	nLeaf := o.mem.Geometry().Leaves()
	entries := make([]posmap.Entry, len(s.PermTier))
	for i := range entries {
		tier, slot, leaf := posmap.Tier(s.PermTier[i]), s.PermSlot[i], s.Leaves[i]
		switch {
		case tier > posmap.TierMemory:
			return fmt.Errorf("horam: restore: address %d has invalid tier %d", i, s.PermTier[i])
		case tier == posmap.TierMemory && (leaf < 0 || leaf >= nLeaf):
			return fmt.Errorf("horam: restore: memory-tier address %d has leaf %d, not one of [0,%d)", i, leaf, nLeaf)
		case tier == posmap.TierStorage && leaf != posmap.NoLeaf:
			return fmt.Errorf("horam: restore: storage-tier address %d has leaf %d", i, leaf)
		case tier == posmap.TierMemory:
			slot = leaf
		}
		entries[i] = posmap.Entry{Tier: tier, Slot: slot, Touched: s.PermTouched[i]}
	}
	if err := o.perm.Import(entries); err != nil {
		return err
	}
	for slot := int64(0); slot < s.MemSlots; slot++ {
		if len(s.MemImage[slot]) != s.SlotSize {
			return fmt.Errorf("horam: restore: memory slot %d image is %d bytes, want %d", slot, len(s.MemImage[slot]), s.SlotSize)
		}
		if err := o.memDev.WriteRaw(slot, s.MemImage[slot]); err != nil {
			return err
		}
	}
	blocks := make([]stash.Block, len(s.StashAddrs))
	for i := range blocks {
		blocks[i] = stash.Block{Addr: s.StashAddrs[i], Data: s.StashData[i]}
	}
	if err := o.mem.ImportState(o.perm.Leaf, blocks, s.RealCount); err != nil {
		return err
	}
	o.missCount = s.MissCount
	o.nextPart = s.NextPart
	o.shuffleGen = s.ShuffleGen
	o.stats = Stats{
		Requests:      s.Stats.Requests,
		Cycles:        s.Stats.Cycles,
		Misses:        s.Stats.Misses,
		Hits:          s.Stats.Hits,
		DummyIO:       s.Stats.DummyIO,
		DummyMemory:   s.Stats.DummyMemory,
		Shuffles:      s.Stats.Shuffles,
		PartShuffled:  s.Stats.PartShuffled,
		EvictedReal:   s.Stats.EvictedReal,
		ShuffleQuanta: s.Stats.ShuffleQuanta,
		MaxCycleTime:  time.Duration(s.Stats.MaxCycleNanos),
	}
	return nil
}
