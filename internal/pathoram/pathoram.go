// Package pathoram implements the non-recursive Path ORAM of Stefanov
// et al., the scheme the paper both builds on (H-ORAM's in-memory
// cache tier is a Path ORAM tree) and compares against (the tree-top
// cache baseline is a Path ORAM spanning memory and storage).
//
// The tree lives on a device.Backend: bucket b occupies tree slots
// [b·Z, (b+1)·Z), every slot holding one sealed block record. Real and
// dummy records seal to the same length, so an adversary watching the
// device sees only which buckets are touched — and Path ORAM touches
// exactly one random root-to-leaf path per access. Config.Trusted can
// keep the top levels in the controller instead (tree-top caching):
// their T slots hold plaintext records that never reach the device,
// and tree slot s ≥ T is device slot s − T.
//
// Two types share the tree. Tree keeps no position map: its callers
// hand each access the block's current leaf and record the new leaf it
// returns, and inside it every block carries its leaf — in its stash
// entry, or in the slot-leaf table while it sits in a tree slot — so
// eviction never reads a map. H-ORAM's memory tier is a Tree whose
// leaves live in the permutation list. ORAM is the standalone Path
// ORAM: a Tree plus the paper's non-recursive position map, used by
// the baselines and tree-top caching.
package pathoram

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/blockcipher"
	"repro/internal/ctops"
	"repro/internal/device"
	"repro/internal/oramtree"
	"repro/internal/posmap"
	"repro/internal/record"
	"repro/internal/stash"
)

// Op selects the access type.
type Op uint8

// Access operations.
const (
	OpRead Op = iota
	OpWrite
)

// Config parameterises a Path ORAM instance.
type Config struct {
	// Blocks is the number of addressable logical blocks N.
	Blocks int64
	// BlockSize is the plaintext payload size in bytes.
	BlockSize int
	// Z is the bucket size; the paper uses Z = 4.
	Z int
	// Capacity optionally overrides the tree's slot capacity; zero
	// means the standard 2·Blocks (≤ 50% utilisation). H-ORAM sizes
	// its memory tree by the memory budget n rather than by N.
	Capacity int64
	// Sealer encrypts slots; required.
	Sealer blockcipher.Sealer
	// RNG drives leaf assignment and must be dedicated to this tree.
	RNG *blockcipher.RNG
	// StashLimit bounds the stash (0 = unbounded; experiments measure
	// the peak instead of failing). Under ConstantTime it is also the
	// length of every stash scan, and 0 means min(tree slots, Blocks).
	StashLimit int
	// ConstantTime hardens the controller's trusted-memory work
	// against a co-located timing adversary: the stash becomes a fixed
	// payload pool under a dense entry array, both scanned full-length
	// in fixed order on every operation, the standalone ORAM's position
	// map switches to scan lookups, and eviction selects blocks with
	// branchless masks instead of early-exit loops. Device traffic
	// (slots, order, sealed bytes and the RNG streams behind them) is
	// byte-identical to the default mode; only in-memory computation
	// changes.
	ConstantTime bool
	// Trusted is the number of top tree levels kept inside the
	// controller as plaintext records instead of on the device — the
	// tree-top caching of Ren et al. (ISCA 2013) and PHANTOM (CCS
	// 2013). Every path crosses those levels, so they are never sealed,
	// opened or put on the bus: the device holds only the remaining
	// slots, shifted down by Geometry.TopSlots(Trusted). The dropped
	// buckets are fixed by the leaf the deeper levels already show, so
	// the bus reveals nothing new. Zero keeps the whole tree on the
	// device; at most the tree's Levels.
	Trusted int
}

func (c Config) validate() error {
	if c.Blocks <= 0 {
		return fmt.Errorf("pathoram: Blocks must be positive, got %d", c.Blocks)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("pathoram: BlockSize must be positive, got %d", c.BlockSize)
	}
	if c.Z <= 0 {
		return fmt.Errorf("pathoram: Z must be positive, got %d", c.Z)
	}
	if c.Sealer == nil {
		return errors.New("pathoram: Sealer is required")
	}
	if c.RNG == nil {
		return errors.New("pathoram: RNG is required")
	}
	if c.Trusted < 0 {
		return fmt.Errorf("pathoram: Trusted must be non-negative, got %d", c.Trusted)
	}
	return nil
}

// SlotSize returns the sealed on-device slot size implied by cfg.
func (c Config) SlotSize() int { return record.SlotSize(c.BlockSize, c.Sealer) }

// Stats counts ORAM-level work (device-level traffic is on the device).
type Stats struct {
	Accesses     int64 // logical accesses served
	DummyAccess  int64 // padding path accesses (no logical block)
	BucketReads  int64 // buckets fetched
	BucketWrites int64 // buckets written back
	Inserts      int64 // blocks injected directly into the stash
}

// Tree is a device-backed Path ORAM tree without a position map: the
// caller keeps each block's leaf and passes it in. Not safe for
// concurrent use.
type Tree struct {
	cfg   Config
	geom  oramtree.Geometry
	dev   device.Backend
	stash stash.Store
	real  int64 // blocks currently held (tree + stash)
	stats Stats
	// leafRNG draws every remap leaf. It is forked as "posmap" because
	// the position map drew them when the tree kept one, and the fork
	// name and point fix the stream.
	leafRNG *blockcipher.RNG

	// The concrete stash: ms in default mode, ct under ConstantTime
	// (the scan-based entry points live on the concrete type). Either
	// way each stash entry carries its block's leaf.
	ms *stash.Stash
	ct *stash.CT

	// Constant-time eviction scratch, fixed-length.
	ctAddrs    []int64 // full stash snapshot (Empty sentinels included)
	ctLeaves   []int64 // leaf carried by each snapshot slot
	ctSlots    []int   // pool slot of each snapshot slot's payload
	ctConsumed []int   // slots taken by the current writePath
	ctElig     []int   // per-level eligibility masks
	ctRanks    []int   // per-level eligible-prefix counts
	// The leaf of the block in each tree slot (trusted top included),
	// stash.NoLeaf for a dummy: written when a path is written back,
	// read when it is absorbed, so a block's leaf travels with it and
	// eviction never consults a position map. Indexed by the public
	// tree slot; the values are as secret as a position map's.
	//
	//horam:secret
	slotLeaf []int64

	// Steady-state scratch: one path's worth of slots, sealed records
	// and plaintexts, allocated once so accesses allocate nothing.
	codec       *record.Codec // record format, dummy plaintext, seal pool
	pathSlots   []int64       // slot vector of the in-flight path or chunk
	pathSealed  [][]byte      // sealed-record slab views
	pathPt      [][]byte      // plaintext slab views (read phase / encodes)
	sealSrc     [][]byte      // seal-batch inputs (pathPt entries or dummyPt)
	taken       [][]byte      // stash payloads consumed by the current writePath
	free        [][]byte      // recycled payload buffers for stash handoff
	evictAddrs  []int64       // sorted stash snapshot for one writePath
	evictLeaves []int64       // the leaf each evictAddrs block carries

	// Trusted top (Config.Trusted levels): tree slots [0, top) are the
	// plaintext records in topPt, and pathSlots holds device slots
	// (tree slot − top), so those levels' entries are negative and
	// index topPt once top is added back. topPath of every path's
	// slots fall in it: the first ones read root-first, the last ones
	// written leaf-first.
	top     int64
	topPath int
	topPt   [][]byte
}

// NewTree builds a Path ORAM tree over dev and fills it with sealed
// dummies. The device must have at least the geometry's slot count
// less the trusted top's, with SlotSize matching cfg.SlotSize().
// Initialisation uses the device's raw path (it is setup, not
// measured work).
func NewTree(cfg Config, dev device.Backend) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	capacity := cfg.Capacity
	if capacity == 0 {
		capacity = 2 * cfg.Blocks
	}
	geom, err := oramtree.ForCapacity(capacity, cfg.Z)
	if err != nil {
		return nil, err
	}
	if dev == nil {
		return nil, errors.New("pathoram: nil device")
	}
	if dev.SlotSize() != cfg.SlotSize() {
		return nil, fmt.Errorf("pathoram: device slot size %d, config needs %d", dev.SlotSize(), cfg.SlotSize())
	}
	if cfg.Trusted > geom.Levels {
		return nil, fmt.Errorf("pathoram: Trusted %d levels, tree has %d", cfg.Trusted, geom.Levels)
	}
	top := geom.TopSlots(cfg.Trusted)
	if dev.Slots() < geom.Slots()-top {
		return nil, fmt.Errorf("pathoram: device has %d slots, tree needs %d", dev.Slots(), geom.Slots()-top)
	}
	o := &Tree{
		cfg:     cfg,
		geom:    geom,
		dev:     dev,
		leafRNG: cfg.RNG.Fork("posmap"),
		codec:   record.New(cfg.Sealer, cfg.BlockSize),
		top:     top,
		topPath: cfg.Trusted * cfg.Z,
	}
	if cfg.ConstantTime {
		// The fixed scan length: the stash holds at most one copy per
		// address and never more than the tree's slots, so with no
		// explicit limit min(slots, Blocks) real blocks is a safe
		// capacity. It is public geometry, so the scans still depend on
		// nothing secret — and every masked pass costs in proportion to
		// it, so a caller that knows a tighter bound (H-ORAM's miss
		// budget) sets StashLimit.
		ctCap := cfg.StashLimit
		if ctCap == 0 {
			ctCap = int(min(geom.Slots(), cfg.Blocks))
		}
		o.ct = stash.NewConstantTime(ctCap, cfg.BlockSize)
		o.stash = o.ct
		o.ctAddrs = make([]int64, 0, ctCap)
		o.ctLeaves = make([]int64, 0, ctCap)
		o.ctSlots = make([]int, 0, ctCap)
		o.ctConsumed = make([]int, ctCap)
		o.ctElig = make([]int, ctCap)
		o.ctRanks = make([]int, ctCap)
	} else {
		o.ms = stash.New(cfg.StashLimit)
		o.stash = o.ms
	}
	o.slotLeaf = make([]int64, geom.Slots())
	pathLen := (geom.Levels + 1) * cfg.Z
	o.pathSlots = make([]int64, pathLen)
	o.pathSealed = record.Slab(pathLen, o.codec.SlotSize())
	o.pathPt = record.Slab(pathLen, o.codec.PtSize())
	o.sealSrc = make([][]byte, 0, pathLen)
	o.taken = make([][]byte, 0, pathLen)
	o.topPt = record.Slab(int(top), o.codec.PtSize())
	if err := o.clearTree(); err != nil {
		return nil, err
	}
	return o, nil
}

// newPayload returns an owned BlockSize copy of src, reusing a
// recycled buffer when one is free. Buffers handed to callers are
// never recycled; only payloads sealed back into the tree return to
// the free list.
func (o *Tree) newPayload(src []byte) []byte {
	var buf []byte
	if n := len(o.free); n > 0 {
		buf = o.free[n-1]
		o.free = o.free[:n-1]
	} else {
		buf = make([]byte, o.cfg.BlockSize)
	}
	copy(buf, src)
	return buf
}

// stashPut puts addr's block, mapped to leaf, into the stash; either
// stash's entry carries the leaf. The map stash keeps the buffer it is
// given, so it gets an owned copy; the constant-time stash copies data
// into its own payload pool, so data goes to it as is and no throwaway
// buffer is made.
func (o *Tree) stashPut(addr, leaf int64, data []byte) error {
	if o.ct != nil {
		return o.ct.PutMasked(1, addr, leaf, data)
	}
	return o.ms.PutLeaf(addr, leaf, o.newPayload(data))
}

// clearTree puts a dummy into every slot of the tree: the trusted top
// takes the dummy plaintext, and the device slots are batch-sealed one
// path-sized chunk at a time (the chunked order keeps the nonce stream
// identical to a serial slot loop).
func (o *Tree) clearTree() error {
	for _, pt := range o.topPt {
		copy(pt, o.codec.DummyPt())
	}
	for i := range o.slotLeaf {
		o.slotLeaf[i] = stash.NoLeaf
	}
	chunk := int64(len(o.pathSealed))
	slots := o.devSlots()
	for lo := int64(0); lo < slots; lo += chunk {
		hi := min(lo+chunk, slots)
		n := int(hi - lo)
		src := o.sealSrc[:0]
		for i := 0; i < n; i++ {
			src = append(src, o.codec.DummyPt())
		}
		o.sealSrc = src[:0]
		if err := o.codec.SealRun(src, o.pathSealed[:n]); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := o.dev.WriteRaw(lo+int64(i), o.pathSealed[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// devSlots returns how many tree slots live on the device.
func (o *Tree) devSlots() int64 { return o.geom.Slots() - o.top }

// stashReal puts every real record among the plaintexts pts into the
// stash, with no leaf: DrainAll, the one caller, drains the stash
// straight after.
func (o *Tree) stashReal(pts [][]byte) error {
	for _, pt := range pts {
		addr, payload := o.codec.Decode(pt)
		if addr == record.DummyAddr {
			continue
		}
		if err := o.stashPut(addr, stash.NoLeaf, payload); err != nil {
			return err
		}
	}
	return nil
}

// Geometry returns the tree geometry.
func (o *Tree) Geometry() oramtree.Geometry { return o.geom }

// Stats returns ORAM-level counters.
func (o *Tree) Stats() Stats { return o.stats }

// StashLen returns the current stash occupancy.
func (o *Tree) StashLen() int { return o.stash.Len() }

// StashPeak returns the peak stash occupancy observed.
func (o *Tree) StashPeak() int { return o.stash.Peak() }

// RealCount returns the number of real blocks currently held.
func (o *Tree) RealCount() int64 { return o.real }

// Capacity returns the maximum number of real blocks this instance is
// meant to hold (half the tree's slots, the paper's 50% utilisation
// bound).
func (o *Tree) Capacity() int64 { return o.geom.Slots() / 2 }

func (o *Tree) checkAddr(addr int64) error {
	if addr < 0 || addr >= o.cfg.Blocks {
		return fmt.Errorf("pathoram: address %d out of range [0,%d)", addr, o.cfg.Blocks)
	}
	return nil
}

// checkLeaf refuses a leaf that is neither NoLeaf nor one of the
// tree's.
func (o *Tree) checkLeaf(addr, leaf int64) error {
	if leaf != stash.NoLeaf && (leaf < 0 || leaf >= o.geom.Leaves()) {
		return fmt.Errorf("pathoram: block %d leaf %d out of range [0,%d)", addr, leaf, o.geom.Leaves())
	}
	return nil
}

// readPath fetches every bucket on the path to leaf into the stash.
// The trusted top's plaintexts are copied into the path slab; then,
// for the device levels, the reads land in the sealed slab (charged
// per slot in the classic order), one batch open decrypts the run,
// and the real blocks are copied into stash-owned buffers.
func (o *Tree) readPath(leaf int64) error {
	n := 0
	for _, bucket := range o.geom.Path(leaf) {
		base := o.geom.SlotBase(bucket) - o.top
		for z := 0; z < o.cfg.Z; z++ {
			o.pathSlots[n] = base + int64(z)
			n++
		}
		o.stats.BucketReads++
	}
	h := o.topPath
	for i := 0; i < h; i++ {
		copy(o.pathPt[i], o.topPt[o.pathSlots[i]+o.top])
	}
	if err := o.dev.ReadSlots(o.pathSlots[h:n], o.pathSealed[h:n]); err != nil {
		return err
	}
	if err := o.codec.OpenRun(o.pathPt[h:n], o.pathSealed[h:n]); err != nil {
		return fmt.Errorf("pathoram: path to leaf %d: %w", leaf, err)
	}
	// Each block takes along the leaf its slot carries. Under
	// ConstantTime every slot of the path runs the same masked Put, so
	// which of them carried real blocks never shows in the touch
	// sequence.
	for i := 0; i < n; i++ {
		addr, payload := o.codec.Decode(o.pathPt[i])
		leaf := o.slotLeaf[o.pathSlots[i]+o.top]
		if o.ct != nil {
			real := ctops.Eq64(addr, record.DummyAddr) ^ 1
			if err := o.ct.PutMasked(real, addr, leaf, payload); err != nil {
				return err
			}
		} else if addr != record.DummyAddr {
			if err := o.stashPut(addr, leaf, payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePath evicts stash blocks back onto the path to leaf, deepest
// level first, padding every remaining slot with dummies. The
// selection pass stages each slot's plaintext (real payloads are
// encoded into the path slab, dummies point at the shared dummy
// plaintext), then one batch seal — nonce order identical to the
// serial slot loop — and per-slot device writes in the same order.
// Stash buffers consumed here are dead after flushPath and return to
// the free list.
//
// The stash is snapshotted once per path, each address with the leaf
// its entry carries: eviction only removes entries, so one sorted
// address list with consumed entries marked yields the same per-level
// candidates, in the same ascending order, as re-enumerating the stash
// at every level. Each written slot's leaf goes into slotLeaf for the
// read that absorbs it again.
func (o *Tree) writePath(leaf int64) error {
	if o.ct != nil {
		return o.ctWritePath(leaf)
	}
	path := o.geom.Path(leaf)
	n := 0
	src := o.sealSrc[:0]
	taken := o.taken[:0]
	addrs := o.ms.AppendAddrs(o.evictAddrs[:0])
	o.evictAddrs = addrs[:0]
	leaves := o.ms.AppendLeaves(o.evictLeaves[:0], addrs)
	o.evictLeaves = leaves[:0]
	for level := o.geom.Levels; level >= 0; level-- {
		base := o.geom.SlotBase(path[level]) - o.top
		placed := 0
		for i, addr := range addrs {
			if placed == o.cfg.Z {
				break
			}
			if addr == record.DummyAddr {
				continue // already evicted at a deeper level
			}
			if leaves[i] == stash.NoLeaf || o.geom.CommonLevel(leaves[i], leaf) < level {
				continue
			}
			payload, _ := o.ms.Take(addr)
			addrs[i] = record.DummyAddr
			o.codec.Encode(o.pathPt[n], addr, payload)
			taken = append(taken, payload)
			src = append(src, o.pathPt[n])
			o.pathSlots[n] = base + int64(placed)
			o.slotLeaf[o.pathSlots[n]+o.top] = leaves[i]
			n++
			placed++
		}
		for ; placed < o.cfg.Z; placed++ {
			src = append(src, o.codec.DummyPt())
			o.pathSlots[n] = base + int64(placed)
			o.slotLeaf[o.pathSlots[n]+o.top] = stash.NoLeaf
			n++
		}
		o.stats.BucketWrites++
	}
	o.sealSrc = src[:0]
	o.taken = taken[:0]
	if err := o.flushPath(src, n); err != nil {
		return err
	}
	for _, buf := range taken {
		o.free = append(o.free, buf)
	}
	return nil
}

// flushPath writes back one staged path: pathSlots[:n] in leaf-first
// order, src their plaintexts. The last topPath slots are the trusted
// top's and are copied into it; the rest are batch-sealed — nonce
// order identical to a serial slot loop — and written to the device in
// the same order. Every bound and index is fixed by the public leaf.
//
//horam:constant-time
func (o *Tree) flushPath(src [][]byte, n int) error {
	d := n - o.topPath
	for i := d; i < n; i++ {
		copy(o.topPt[o.pathSlots[i]+o.top], src[i])
	}
	if err := o.codec.SealRun(src[:d], o.pathSealed[:d]); err != nil {
		return err
	}
	return o.dev.WriteSlots(o.pathSlots[:d], o.pathSealed[:d])
}

// ctCommonLevel is the branchless CommonLevel: bits.Len64 compiles to
// a count-leading-zeros instruction, and Len64(0) == 0 already yields
// the full-depth answer, so no equality branch is needed. Callers mask
// the result when a or b is not a valid leaf.
//
//horam:constant-time
//horam:secret a b
func ctCommonLevel(levels int, a, b int64) int {
	return levels - bits.Len64(uint64(a^b))
}

// ctWritePath is writePath under ConstantTime: the same eviction
// decisions (ascending-address candidates, deepest level first, up to
// Z per bucket, identical tie-breaks) computed with full-length
// fixed-order scans and branchless masks, so neither the stash
// occupancy nor which blocks are eligible shows in the touch sequence.
// The staged plaintexts, slot order and seal-nonce order are exactly
// the default path's, so the sealed device traffic is byte-identical.
//
// One snapshot of the stash's addresses, of the leaves they carry and
// of their pool slots serves the whole path, mirroring the default
// path's single sorted snapshot.
// Each output slot's pool slot is picked with the same masked selects
// as its address, and its payload gathered in one masked pass over the
// stash's pool. Consumed slots are marked in a mask and removed from
// the stash in a fixed number of masked passes at the end, and each
// written slot's leaf goes into slotLeaf for the read that absorbs it
// again.
//
// The stash snapshots are the secrets here; the written path (leaf)
// is public device traffic.
//
//horam:constant-time
//horam:secret addrs leaves slots
func (o *Tree) ctWritePath(leaf int64) error {
	capn := o.ct.Capacity()
	addrs := o.ct.SnapshotAddrs(o.ctAddrs[:0])
	o.ctAddrs = addrs[:0]
	leaves := o.ct.SnapshotLeaves(o.ctLeaves[:0])
	o.ctLeaves = leaves[:0]
	slots := o.ct.SnapshotSlots(o.ctSlots[:0])
	o.ctSlots = slots[:0]
	consumed := o.ctConsumed[:capn]
	for i := range consumed {
		consumed[i] = 0
	}
	elig := o.ctElig[:capn]
	ranks := o.ctRanks[:capn]

	path := o.geom.Path(leaf)
	n := 0
	src := o.sealSrc[:0]
	for level := o.geom.Levels; level >= 0; level-- {
		base := o.geom.SlotBase(path[level]) - o.top
		// Eligibility and rank of every candidate at this level. An
		// unoccupied slot carries NoLeaf, so it is masked out without
		// a branch.
		r := 0
		for i := 0; i < capn; i++ {
			mapped := ctops.Eq64(leaves[i], stash.NoLeaf) ^ 1
			cl := ctCommonLevel(o.geom.Levels, leaves[i], leaf)
			e := (consumed[i] ^ 1) & mapped & ctops.GeInt(cl, level)
			elig[i] = e
			ranks[i] = r
			r += e
		}
		// Slot z receives the z-th eligible candidate in ascending
		// address order (the snapshot is sorted), or a dummy when the
		// level has fewer than Z — the same packing as the default
		// path's take-in-order loop.
		for z := 0; z < o.cfg.Z; z++ {
			pt := o.pathPt[n]
			o.codec.Encode(pt, record.DummyAddr, nil)
			_, payload := o.codec.Decode(pt)
			found, slotAddr, slotLeaf, poolSlot := 0, record.DummyAddr, stash.NoLeaf, 0
			for i := 0; i < capn; i++ {
				m := elig[i] & ctops.EqInt(ranks[i], z)
				found |= m
				slotAddr = ctops.Select64(m, addrs[i], slotAddr)
				slotLeaf = ctops.Select64(m, leaves[i], slotLeaf)
				poolSlot = ctops.SelectInt(m, slots[i], poolSlot)
				consumed[i] |= m
			}
			o.ct.GatherMasked(found, poolSlot, payload)
			record.PutAddr(pt, slotAddr)
			src = append(src, pt)
			o.pathSlots[n] = base + int64(z)
			o.slotLeaf[o.pathSlots[n]+o.top] = slotLeaf
			n++
		}
		o.stats.BucketWrites++
	}
	o.ct.RemoveMasked(consumed)
	o.sealSrc = src[:0]
	return o.flushPath(src, n)
}

// Access performs one Path ORAM operation on the block at addr, which
// the caller has mapped to leaf — posmap.NoLeaf when the tree does not
// hold the block. For OpRead, data is ignored and the block's current
// contents (zeros if never written) are returned. For OpWrite, data is
// stored and the previous contents are returned. Either way the same
// path-read, remap, path-write sequence executes, so reads and writes
// are indistinguishable on the bus. The second result is the block's
// new leaf, which the caller records in place of leaf: a fresh uniform
// draw, or NoLeaf when a read of a block the tree does not hold leaves
// it unheld.
func (o *Tree) Access(op Op, addr, leaf int64, data []byte) ([]byte, int64, error) {
	if err := o.checkAddr(addr); err != nil {
		return nil, stash.NoLeaf, err
	}
	if op == OpWrite && len(data) != o.cfg.BlockSize {
		return nil, stash.NoLeaf, fmt.Errorf("pathoram: write payload %d bytes, want %d", len(data), o.cfg.BlockSize)
	}
	if err := o.checkLeaf(addr, leaf); err != nil {
		return nil, stash.NoLeaf, err
	}

	fresh := leaf == stash.NoLeaf
	if fresh {
		// Unmapped block: still read a uniformly random path so the
		// bus pattern never reveals first-touch.
		leaf = o.cfg.RNG.Int63n(o.geom.Leaves())
	}
	if err := o.readPath(leaf); err != nil {
		return nil, stash.NoLeaf, err
	}

	current, inStash := o.stash.Take(addr)
	if !inStash {
		current = make([]byte, o.cfg.BlockSize)
		if !fresh {
			// Mapped but absent: corruption (or stash overflow loss).
			return nil, stash.NoLeaf, fmt.Errorf("pathoram: block %d mapped to leaf %d but not found on path", addr, leaf)
		}
	}

	// Remap to a fresh uniform leaf before write-back. A read of a
	// never-written block draws one too, so the leaf stream does not
	// depend on it, but allocates no state.
	newLeaf := o.leafRNG.Int63n(o.geom.Leaves())
	switch {
	case op == OpWrite:
		if fresh {
			o.real++
		}
		// stashPut copies data, so the stash copy is distinct from the
		// caller's buffer: stash payloads are recycled once sealed back
		// into the tree, caller buffers never are.
		if err := o.stashPut(addr, newLeaf, data); err != nil {
			return nil, stash.NoLeaf, err
		}
	case fresh:
		newLeaf = stash.NoLeaf
	default:
		if err := o.stashPut(addr, newLeaf, current); err != nil {
			return nil, stash.NoLeaf, err
		}
	}
	if err := o.writePath(leaf); err != nil {
		return nil, stash.NoLeaf, err
	}
	o.stats.Accesses++
	return current, newLeaf, nil
}

// DummyAccess reads and rewrites one uniformly random path without
// touching any logical block — the padding operation H-ORAM's
// scheduler issues when a group cannot be filled with real requests.
func (o *Tree) DummyAccess() error {
	leaf := o.cfg.RNG.Int63n(o.geom.Leaves())
	if err := o.readPath(leaf); err != nil {
		return err
	}
	if err := o.writePath(leaf); err != nil {
		return err
	}
	o.stats.DummyAccess++
	return nil
}

// Insert places the block at addr, which the caller has mapped to leaf
// (posmap.NoLeaf when the tree does not hold it), directly into the
// stash with a fresh random leaf, without a path access, and returns
// the new leaf. H-ORAM uses this when the storage-layer I/O delivers a
// missed block into the memory tree's stash (§4.1); the block migrates
// into the tree on subsequent write-backs.
//
// A block held on a path (mapped, and not in the stash) is refused:
// inserting over it would leave a stale copy behind. H-ORAM's
// permutation list guarantees a block is fetched from storage at most
// once per period. Re-inserting while the block is still in the stash
// simply replaces the stash copy.
func (o *Tree) Insert(addr, leaf int64, data []byte) (int64, error) {
	if err := o.checkAddr(addr); err != nil {
		return stash.NoLeaf, err
	}
	if len(data) != o.cfg.BlockSize {
		return stash.NoLeaf, fmt.Errorf("pathoram: insert payload %d bytes, want %d", len(data), o.cfg.BlockSize)
	}
	if err := o.checkLeaf(addr, leaf); err != nil {
		return stash.NoLeaf, err
	}
	if leaf != stash.NoLeaf && !o.stash.Has(addr) {
		return stash.NoLeaf, fmt.Errorf("pathoram: Insert(%d): block already resident in the tree; use Write", addr)
	}
	if leaf == stash.NoLeaf {
		o.real++
	}
	newLeaf := o.leafRNG.Int63n(o.geom.Leaves())
	if err := o.stashPut(addr, newLeaf, data); err != nil {
		return stash.NoLeaf, err
	}
	o.stats.Inserts++
	return newLeaf, nil
}

// DrainAll reads the entire tree (the trusted top, then the device
// sequentially — this is the bulk scan H-ORAM's evict phase performs),
// combines it with the stash, and returns every real block in
// ascending address order. The tree is re-filled with dummies: it is
// empty afterwards, and every leaf its caller recorded is void.
func (o *Tree) DrainAll() ([]stash.Block, error) {
	if err := o.stashReal(o.topPt); err != nil {
		return nil, err
	}
	chunk := int64(len(o.pathSealed))
	slots := o.devSlots()
	for lo := int64(0); lo < slots; lo += chunk {
		hi := min(lo+chunk, slots)
		n := int(hi - lo)
		for i := 0; i < n; i++ {
			o.pathSlots[i] = lo + int64(i)
		}
		if err := o.dev.ReadSlots(o.pathSlots[:n], o.pathSealed[:n]); err != nil {
			return nil, err
		}
		if err := o.codec.OpenRun(o.pathPt[:n], o.pathSealed[:n]); err != nil {
			return nil, fmt.Errorf("pathoram: drain slots [%d,%d): %w", lo, hi, err)
		}
		if err := o.stashReal(o.pathPt[:n]); err != nil {
			return nil, err
		}
	}
	blocks := o.stash.Drain()
	o.real = 0
	if err := o.clearTree(); err != nil {
		return nil, err
	}
	return blocks, nil
}

// ORAM is the standalone Path ORAM: a Tree with its own position map
// (the paper's "naive setting, no recursive"), whose entry for each
// address is the leaf the tree last returned for it. Not safe for
// concurrent use.
type ORAM struct {
	*Tree
	pm *posmap.PositionMap
}

// New builds a standalone Path ORAM over dev; see NewTree for the
// device requirements. Under ConstantTime the position map answers
// every lookup with a full-length scan.
func New(cfg Config, dev device.Backend) (*ORAM, error) {
	t, err := NewTree(cfg, dev)
	if err != nil {
		return nil, err
	}
	pm, err := posmap.NewPositionMap(cfg.Blocks, t.geom.Leaves())
	if err != nil {
		return nil, err
	}
	pm.SetConstantTime(cfg.ConstantTime)
	return &ORAM{Tree: t, pm: pm}, nil
}

// Access performs one Path ORAM operation; see Tree.Access. The
// position map supplies the block's leaf and records its new one.
func (o *ORAM) Access(op Op, addr int64, data []byte) ([]byte, error) {
	leaf, err := o.pm.Get(addr)
	if err != nil {
		return nil, err
	}
	current, leaf, err := o.Tree.Access(op, addr, leaf, data)
	if err != nil {
		return nil, err
	}
	if err := o.pm.Set(addr, leaf); err != nil {
		return nil, err
	}
	return current, nil
}

// Read fetches the block at addr.
func (o *ORAM) Read(addr int64) ([]byte, error) { return o.Access(OpRead, addr, nil) }

// Write stores data at addr.
func (o *ORAM) Write(addr int64, data []byte) error {
	_, err := o.Access(OpWrite, addr, data)
	return err
}

// Insert places a block directly into the stash; see Tree.Insert.
func (o *ORAM) Insert(addr int64, data []byte) error {
	leaf, err := o.pm.Get(addr)
	if err != nil {
		return err
	}
	if leaf, err = o.Tree.Insert(addr, leaf, data); err != nil {
		return err
	}
	return o.pm.Set(addr, leaf)
}

// Has reports whether addr currently holds a real block.
func (o *ORAM) Has(addr int64) (bool, error) {
	if err := o.checkAddr(addr); err != nil {
		return false, err
	}
	if o.stash.Has(addr) {
		return true, nil
	}
	leaf, err := o.pm.Get(addr)
	if err != nil {
		return false, err
	}
	return leaf != posmap.NoLeaf, nil
}

// DrainAll empties the tree (see Tree.DrainAll) and clears the
// position map.
func (o *ORAM) DrainAll() ([]stash.Block, error) {
	blocks, err := o.Tree.DrainAll()
	if err != nil {
		return nil, err
	}
	o.pm.Clear()
	return blocks, nil
}
