// Package treetop implements the paper's baseline: a Path ORAM whose
// tree top is cached in memory and whose bottom levels spill to
// storage (the ZeroTrace-style layout of Figure 3-1a). Every path
// access therefore costs log2(n/Z) fast memory bucket accesses plus
// log2(2N/n) slow storage bucket accesses — the Z·log2(2N/n) read +
// write I/O overhead of equation (5-3) that H-ORAM attacks.
//
// The "tree top" here is the part of the tree in DRAM rather than on
// disk: both tiers are untrusted devices and every bucket is still
// sealed. It is not the controller-side tree-top cache H-ORAM's memory
// tree uses (pathoram.Config.Trusted), which keeps the top levels
// unsealed inside the trusted controller; this baseline runs with the
// whole tree on its devices.
package treetop

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/oramtree"
	"repro/internal/pathoram"
)

// ORAM is a tree-top-cached Path ORAM. It embeds pathoram.ORAM — the
// protocol is unchanged; only the device placement differs.
type ORAM struct {
	*pathoram.ORAM
	memLevels int // tree levels resident in memory
}

// New builds the baseline over a memory device and a storage device.
// memoryBudget is the memory-tier budget in bytes, counted in
// plaintext block capacity as the paper does (budget / BlockSize
// slots); the constructor places as many whole top levels as fit.
// Both devices must use cfg.SlotSize() slots.
func New(cfg pathoram.Config, mem, stor device.Backend, memoryBudget int64) (*ORAM, error) {
	capacity := cfg.Capacity
	if capacity == 0 {
		capacity = 2 * cfg.Blocks
	}
	geom, err := oramtree.ForCapacity(capacity, cfg.Z)
	if err != nil {
		return nil, err
	}
	if memoryBudget < 0 {
		return nil, fmt.Errorf("treetop: negative memory budget")
	}
	budgetSlots := memoryBudget / int64(cfg.BlockSize)

	// Place whole levels: the top k levels occupy (2^k − 1)·Z slots.
	memLevels := 0
	for memLevels < geom.Levels+1 {
		next := memLevels + 1
		slots := ((int64(1) << uint(next)) - 1) * int64(cfg.Z)
		if slots > budgetSlots {
			break
		}
		memLevels = next
	}
	boundary := ((int64(1) << uint(memLevels)) - 1) * int64(cfg.Z)

	tiered, err := device.NewTiered(mem, stor, boundary, geom.Slots())
	if err != nil {
		return nil, fmt.Errorf("treetop: %w", err)
	}
	inner, err := pathoram.New(cfg, tiered)
	if err != nil {
		return nil, err
	}
	return &ORAM{ORAM: inner, memLevels: memLevels}, nil
}

// MemLevels returns how many tree levels (from the root) live in the
// memory tier.
func (o *ORAM) MemLevels() int { return o.memLevels }

// StorageLevels returns how many levels live on storage — the
// log2(2N/n) term of equation (5-2).
func (o *ORAM) StorageLevels() int { return o.Geometry().Levels + 1 - o.memLevels }

// StorageBucketsPerAccess returns the number of storage buckets a
// single access reads (and writes): the per-access I/O cost in bucket
// units.
func (o *ORAM) StorageBucketsPerAccess() int { return o.StorageLevels() }
