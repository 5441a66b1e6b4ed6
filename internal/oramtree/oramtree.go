// Package oramtree provides the index arithmetic for Path ORAM trees:
// heap-numbered buckets, root-to-leaf paths, level queries and the
// bucket→device-slot layout. It holds no data; the pathoram, treetop
// and horam packages layer storage on top of this geometry.
package oramtree

import (
	"fmt"
	"math/bits"
)

// Geometry describes a complete binary Path ORAM tree.
//
// Levels counts edges from root to leaf: a tree with Levels = L has
// L+1 bucket levels (the root is level 0, leaves are level L), 2^L
// leaves and 2^(L+1) − 1 buckets. Each bucket holds Z block slots.
// Buckets are heap-numbered: the root is bucket 0 and bucket b has
// children 2b+1 and 2b+2.
type Geometry struct {
	Levels int // tree height in edges; leaves sit at this level
	Z      int // block slots per bucket
}

// ForCapacity returns the smallest geometry whose total slot count is
// at least `blocks` with bucket size z. Path ORAM stores N real blocks
// in a tree of ≥ 2N slots (≤ 50% utilisation, per the paper), so
// callers typically pass blocks = 2N.
func ForCapacity(blocks int64, z int) (Geometry, error) {
	if blocks <= 0 {
		return Geometry{}, fmt.Errorf("oramtree: capacity must be positive, got %d", blocks)
	}
	if z <= 0 {
		return Geometry{}, fmt.Errorf("oramtree: bucket size must be positive, got %d", z)
	}
	g := Geometry{Levels: 0, Z: z}
	for g.Slots() < blocks {
		g.Levels++
		if g.Levels > 62 {
			return Geometry{}, fmt.Errorf("oramtree: capacity %d too large", blocks)
		}
	}
	return g, nil
}

// FitCapacity returns the largest geometry whose total slot count does
// not exceed `slots` with bucket size z — the sizing rule for a tree
// that must fit a fixed memory budget (H-ORAM's cache tier). It fails
// if even a single bucket does not fit.
func FitCapacity(slots int64, z int) (Geometry, error) {
	if z <= 0 {
		return Geometry{}, fmt.Errorf("oramtree: bucket size must be positive, got %d", z)
	}
	if slots < int64(z) {
		return Geometry{}, fmt.Errorf("oramtree: budget of %d slots cannot hold one bucket of %d", slots, z)
	}
	g := Geometry{Levels: 0, Z: z}
	for {
		next := Geometry{Levels: g.Levels + 1, Z: z}
		if next.Levels > 62 || next.Slots() > slots {
			return g, nil
		}
		g = next
	}
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.Levels < 0 || g.Levels > 62 {
		return fmt.Errorf("oramtree: levels %d out of range [0,62]", g.Levels)
	}
	if g.Z <= 0 {
		return fmt.Errorf("oramtree: bucket size %d must be positive", g.Z)
	}
	return nil
}

// Leaves returns the number of leaves, 2^Levels.
func (g Geometry) Leaves() int64 { return 1 << uint(g.Levels) }

// Buckets returns the number of buckets, 2^(Levels+1) − 1.
func (g Geometry) Buckets() int64 { return (1 << uint(g.Levels+1)) - 1 }

// Slots returns the total number of block slots, Buckets · Z.
func (g Geometry) Slots() int64 { return g.Buckets() * int64(g.Z) }

// TopSlots returns the number of slots in the top k levels (levels
// 0..k−1), (2^k − 1) · Z. Under the canonical layout they are slots
// [0, TopSlots(k)).
func (g Geometry) TopSlots(k int) int64 { return ((1 << uint(k)) - 1) * int64(g.Z) }

// BucketAt returns the heap index of the bucket at the given level on
// the path from the root to leaf.
func (g Geometry) BucketAt(leaf int64, level int) int64 {
	// Level l holds buckets [2^l − 1, 2^(l+1) − 1); the path to `leaf`
	// passes through the one whose offset is the top l bits of leaf.
	return (1 << uint(level)) - 1 + (leaf >> uint(g.Levels-level))
}

// Path returns the heap indices of the buckets from the root (index 0
// of the result) down to leaf (last index). The slice has Levels+1
// entries.
func (g Geometry) Path(leaf int64) []int64 {
	p := make([]int64, g.Levels+1)
	for l := 0; l <= g.Levels; l++ {
		p[l] = g.BucketAt(leaf, l)
	}
	return p
}

// LevelOf returns the level of a heap-numbered bucket.
func (g Geometry) LevelOf(bucket int64) int {
	return bits.Len64(uint64(bucket)+1) - 1
}

// LeafOfBucket returns the smallest leaf whose path passes through
// bucket (i.e. the leftmost leaf of its subtree).
func (g Geometry) LeafOfBucket(bucket int64) int64 {
	level := g.LevelOf(bucket)
	offset := bucket - ((1 << uint(level)) - 1)
	return offset << uint(g.Levels-level)
}

// CommonLevel returns the deepest level at which the paths to leaves a
// and b share a bucket (0 = they only share the root). This is the
// level down to which a block mapped to leaf b may be evicted while
// the eviction walks the path of leaf a.
func (g Geometry) CommonLevel(a, b int64) int {
	x := a ^ b
	if x == 0 {
		return g.Levels
	}
	return g.Levels - bits.Len64(uint64(x))
}

// SlotBase returns the first device slot of a bucket under the
// canonical layout where bucket b occupies slots [b·Z, (b+1)·Z).
func (g Geometry) SlotBase(bucket int64) int64 { return bucket * int64(g.Z) }

// CheckLeaf returns an error unless leaf is a valid leaf index.
func (g Geometry) CheckLeaf(leaf int64) error {
	if leaf < 0 || leaf >= g.Leaves() {
		return fmt.Errorf("oramtree: leaf %d out of range [0,%d)", leaf, g.Leaves())
	}
	return nil
}

// CheckBucket returns an error unless bucket is a valid bucket index.
func (g Geometry) CheckBucket(bucket int64) error {
	if bucket < 0 || bucket >= g.Buckets() {
		return fmt.Errorf("oramtree: bucket %d out of range [0,%d)", bucket, g.Buckets())
	}
	return nil
}
