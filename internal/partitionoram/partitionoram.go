// Package partitionoram implements the flat partition ORAM the paper
// sketches in §2.1.4: the store is divided into √N partitions of √N
// blocks; every access fetches one block into the trusted stash, and
// after v accesses the stash is evicted to a uniformly random
// partition p, which alone is reshuffled. The per-shuffle cost drops
// from O(N) to O(√N) at the price of more frequent shuffles — the
// trade-off H-ORAM's group & partition shuffle inherits (its shuffle
// walks the partitions deterministically, which §4.3.3 argues is
// equivalent because both access partitions with uniform expectation).
package partitionoram

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/record"
	"repro/internal/stash"
)

// Config parameterises a partition ORAM.
type Config struct {
	// Blocks is the number of real blocks N.
	Blocks int64
	// BlockSize is the plaintext payload size.
	BlockSize int
	// Sealer encrypts slot records; required.
	Sealer blockcipher.Sealer
	// RNG must be dedicated to this instance.
	RNG *blockcipher.RNG
	// EvictEvery is the paper's v: stash evictions happen after this
	// many accesses. Zero selects ⌈√N⌉/2. Must satisfy v < √N.
	EvictEvery int64
	// SlackFactor sizes each partition as SlackFactor·√N slots to
	// absorb occupancy imbalance. Zero selects 2 (the classic choice).
	SlackFactor int
}

func (c Config) validate() error {
	if c.Blocks <= 0 {
		return fmt.Errorf("partitionoram: Blocks must be positive, got %d", c.Blocks)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("partitionoram: BlockSize must be positive, got %d", c.BlockSize)
	}
	if c.Sealer == nil {
		return errors.New("partitionoram: Sealer is required")
	}
	if c.RNG == nil {
		return errors.New("partitionoram: RNG is required")
	}
	if c.EvictEvery < 0 {
		return errors.New("partitionoram: EvictEvery must be non-negative")
	}
	if c.SlackFactor < 0 {
		return errors.New("partitionoram: SlackFactor must be non-negative")
	}
	return nil
}

// SlotSize returns the sealed on-device slot size implied by cfg.
func (c Config) SlotSize() int { return record.SlotSize(c.BlockSize, c.Sealer) }

// location records where a block currently lives.
type location struct {
	inStash   bool
	partition int64
	slot      int64 // device slot (absolute)
}

// Stats counts scheme-level work.
type Stats struct {
	Accesses         int64 // logical accesses
	StashHits        int64 // served from the stash (masked by a dummy read)
	DummyReads       int64 // dummy slot reads issued to mask stash hits
	Evictions        int64 // stash evictions
	PartitionShuffle int64 // partitions reshuffled
	Overflows        int64 // evictions deferred because the partition was full
}

// ORAM is a partition ORAM over one storage device. Not safe for
// concurrent use.
type ORAM struct {
	cfg        Config
	dev        device.Backend
	partitions int64
	partSlots  int64 // slots per partition
	evictEvery int64

	loc      []location // per address
	occupied []int64    // real blocks per partition
	// untouched dummy pool per partition: slots currently holding
	// dummies, consumed by masking reads.
	stash   *stash.Stash
	pending int64
	stats   Stats
	codec   *record.Codec
	slotBuf []byte // sealed-slot scratch
	pt      []byte // record-plaintext scratch
}

// New builds the ORAM and writes the initial layout: blocks spread
// round-robin over partitions, each partition padded with dummies and
// internally permuted (setup; uses the raw device path).
func New(cfg Config, dev device.Backend) (*ORAM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if dev == nil {
		return nil, errors.New("partitionoram: nil device")
	}
	if dev.SlotSize() != cfg.SlotSize() {
		return nil, fmt.Errorf("partitionoram: device slot size %d, config needs %d", dev.SlotSize(), cfg.SlotSize())
	}
	root := int64(math.Ceil(math.Sqrt(float64(cfg.Blocks))))
	partitions := root
	slack := cfg.SlackFactor
	if slack == 0 {
		slack = 2
	}
	partSlots := root * int64(slack)
	evictEvery := cfg.EvictEvery
	if evictEvery == 0 {
		evictEvery = (root + 1) / 2
	}
	if evictEvery >= root {
		return nil, fmt.Errorf("partitionoram: EvictEvery %d must be < √N = %d", evictEvery, root)
	}
	if dev.Slots() < partitions*partSlots {
		return nil, fmt.Errorf("partitionoram: device has %d slots, need %d", dev.Slots(), partitions*partSlots)
	}
	o := &ORAM{
		cfg:        cfg,
		dev:        dev,
		partitions: partitions,
		partSlots:  partSlots,
		evictEvery: evictEvery,
		loc:        make([]location, cfg.Blocks),
		occupied:   make([]int64, partitions),
		stash:      stash.New(0),
		codec:      record.New(cfg.Sealer, cfg.BlockSize),
	}
	o.slotBuf = make([]byte, o.codec.SlotSize())
	o.pt = make([]byte, o.codec.PtSize())
	if err := o.initStore(); err != nil {
		return nil, err
	}
	return o, nil
}

// initStore lays blocks round-robin across partitions and permutes
// each partition internally.
func (o *ORAM) initStore() error {
	// Assign addresses to partitions round-robin.
	members := make([][]int64, o.partitions)
	for a := int64(0); a < o.cfg.Blocks; a++ {
		p := a % o.partitions
		members[p] = append(members[p], a)
	}
	for p := int64(0); p < o.partitions; p++ {
		if int64(len(members[p])) > o.partSlots {
			return fmt.Errorf("partitionoram: partition %d assigned %d blocks, capacity %d", p, len(members[p]), o.partSlots)
		}
		// Partition-local permutation over its slots.
		perm := o.cfg.RNG.Perm(int(o.partSlots))
		base := p * o.partSlots
		for i := int64(0); i < o.partSlots; i++ {
			slot := base + int64(perm[i])
			addr := record.DummyAddr
			if i < int64(len(members[p])) {
				addr = members[p][i]
				o.loc[addr] = location{partition: p, slot: slot}
			}
			if err := o.codec.Seal(o.slotBuf, o.pt, addr, nil); err != nil {
				return err
			}
			if err := o.dev.WriteRaw(slot, o.slotBuf); err != nil {
				return err
			}
		}
		o.occupied[p] = int64(len(members[p]))
	}
	return nil
}

// Stats returns scheme-level counters.
func (o *ORAM) Stats() Stats { return o.stats }

// Partitions returns √N.
func (o *ORAM) Partitions() int64 { return o.partitions }

// EvictEvery returns the eviction period v.
func (o *ORAM) EvictEvery() int64 { return o.evictEvery }

// StashLen returns current stash occupancy.
func (o *ORAM) StashLen() int { return o.stash.Len() }

// Op selects the access type.
type Op uint8

// Access operations.
const (
	OpRead Op = iota
	OpWrite
)

// Access performs one partition ORAM operation.
func (o *ORAM) Access(op Op, addr int64, data []byte) ([]byte, error) {
	if addr < 0 || addr >= o.cfg.Blocks {
		return nil, fmt.Errorf("partitionoram: address %d out of range [0,%d)", addr, o.cfg.Blocks)
	}
	if op == OpWrite && len(data) != o.cfg.BlockSize {
		return nil, fmt.Errorf("partitionoram: write payload %d bytes, want %d", len(data), o.cfg.BlockSize)
	}

	var current []byte
	if held, ok := o.stash.Get(addr); ok {
		// Mask the hit with a read of a random slot in a random
		// partition, exactly one storage touch either way.
		o.stats.StashHits++
		p := o.cfg.RNG.Int63n(o.partitions)
		slot := p*o.partSlots + o.cfg.RNG.Int63n(o.partSlots)
		if err := o.dev.Read(slot, o.slotBuf); err != nil {
			return nil, err
		}
		if _, _, err := o.codec.OpenInto(o.pt, o.slotBuf); err != nil {
			return nil, err
		}
		o.stats.DummyReads++
		current = held
	} else {
		l := o.loc[addr]
		if err := o.dev.Read(l.slot, o.slotBuf); err != nil {
			return nil, err
		}
		gotAddr, payload, err := o.codec.OpenInto(o.pt, o.slotBuf)
		if err != nil {
			return nil, err
		}
		if gotAddr != addr {
			return nil, fmt.Errorf("partitionoram: slot %d holds block %d, want %d", l.slot, gotAddr, addr)
		}
		owned := make([]byte, o.cfg.BlockSize) // payload aliases o.pt, reused below
		copy(owned, payload)
		// Blank the fetched slot with a dummy so the block exists only
		// in the stash (the classic fetch-and-invalidate).
		if err := o.codec.Seal(o.slotBuf, o.pt, record.DummyAddr, nil); err != nil {
			return nil, err
		}
		if err := o.dev.Write(l.slot, o.slotBuf); err != nil {
			return nil, err
		}
		o.occupied[l.partition]--
		if err := o.stash.Put(addr, owned); err != nil {
			return nil, err
		}
		o.loc[addr] = location{inStash: true}
		current = owned
	}

	out := make([]byte, o.cfg.BlockSize)
	copy(out, current)
	if op == OpWrite {
		stored := make([]byte, o.cfg.BlockSize)
		copy(stored, data)
		if err := o.stash.Put(addr, stored); err != nil {
			return nil, err
		}
	}

	o.pending++
	o.stats.Accesses++
	if o.pending >= o.evictEvery {
		if err := o.evict(); err != nil {
			return nil, err
		}
		o.pending = 0
	}
	return out, nil
}

// Read fetches the block at addr.
func (o *ORAM) Read(addr int64) ([]byte, error) { return o.Access(OpRead, addr, nil) }

// Write stores data at addr.
func (o *ORAM) Write(addr int64, data []byte) error {
	_, err := o.Access(OpWrite, addr, data)
	return err
}

// evict drains the stash into a uniformly random partition and
// reshuffles just that partition: read its √N·slack slots, merge the
// evicted blocks, permute in trusted memory, write back sequentially.
// If the partition cannot absorb the whole stash the surplus stays in
// the stash for the next eviction (counted as an overflow).
func (o *ORAM) evict() error {
	p := o.cfg.RNG.Int63n(o.partitions)
	base := p * o.partSlots

	// Read the whole partition.
	type rec struct {
		addr int64
		data []byte
	}
	var blocks []rec
	for i := int64(0); i < o.partSlots; i++ {
		if err := o.dev.Read(base+i, o.slotBuf); err != nil {
			return err
		}
		addr, payload, err := o.codec.OpenInto(o.pt, o.slotBuf)
		if err != nil {
			return err
		}
		if addr == record.DummyAddr {
			continue
		}
		owned := make([]byte, o.cfg.BlockSize)
		copy(owned, payload)
		blocks = append(blocks, rec{addr, owned})
	}

	// Merge as much of the stash as fits.
	room := o.partSlots - int64(len(blocks))
	moved := 0
	for _, b := range o.stash.Drain() {
		if int64(moved) < room {
			blocks = append(blocks, rec{b.Addr, b.Data})
			moved++
		} else {
			// Put back: stays sheltered until a later eviction.
			if err := o.stash.Put(b.Addr, b.Data); err != nil {
				return err
			}
			o.stats.Overflows++
		}
	}

	// Permute and write back sequentially, dummies filling the rest.
	perm := o.cfg.RNG.Perm(int(o.partSlots))
	slotOf := make([]int64, len(blocks))
	for i := range blocks {
		slotOf[i] = base + int64(perm[i])
	}
	bySlot := make(map[int64]int, len(blocks))
	for i, s := range slotOf {
		bySlot[s] = i
	}
	for i := int64(0); i < o.partSlots; i++ {
		slot := base + i
		addr := record.DummyAddr
		var payload []byte
		if bi, ok := bySlot[slot]; ok {
			addr = blocks[bi].addr
			payload = blocks[bi].data
		}
		if err := o.codec.Seal(o.slotBuf, o.pt, addr, payload); err != nil {
			return err
		}
		if err := o.dev.Write(slot, o.slotBuf); err != nil {
			return err
		}
		if addr != record.DummyAddr {
			o.loc[addr] = location{partition: p, slot: slot}
		}
	}
	o.occupied[p] = int64(len(blocks))

	o.stats.Evictions++
	o.stats.PartitionShuffle++
	return nil
}
