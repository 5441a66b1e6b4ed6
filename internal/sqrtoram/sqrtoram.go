// Package sqrtoram implements the square-root ORAM of Goldreich and
// Ostrovsky (§2.1.3 of the paper): N real blocks padded with √N
// dummies in a permuted flat store, a trusted shelter of √N blocks,
// and a full reshuffle every √N accesses.
//
// Every access costs exactly one storage read — either the requested
// block's permuted slot (miss) or the next unread dummy (hit in the
// shelter) — so the adversary sees a sequence of never-repeating,
// uniformly distributed slots. The price is the periodic reshuffle:
// with only O(√N) trusted memory the reshuffle must itself be
// oblivious, costing several passes over the whole store. The paper
// charges it O(4N); ShufflePasses models that multiplier.
package sqrtoram

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/record"
	"repro/internal/stash"
)

// Config parameterises a square-root ORAM.
type Config struct {
	// Blocks is the number of real blocks N.
	Blocks int64
	// BlockSize is the plaintext payload size.
	BlockSize int
	// Sealer encrypts slot records; required.
	Sealer blockcipher.Sealer
	// RNG must be dedicated to this instance.
	RNG *blockcipher.RNG
	// Period T: accesses between reshuffles. Zero selects ⌈√N⌉, the
	// classic choice (it also equals the dummy count).
	Period int64
	// ShufflePasses models the oblivious-shuffle cost as whole-store
	// read+write passes. Zero selects 4, matching the O(4N) the paper
	// charges the square-root baseline (§4.3.2). H-ORAM by contrast
	// shuffles with a single pass because its partitions fit in
	// trusted memory.
	ShufflePasses int
}

func (c Config) validate() error {
	if c.Blocks <= 0 {
		return fmt.Errorf("sqrtoram: Blocks must be positive, got %d", c.Blocks)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("sqrtoram: BlockSize must be positive, got %d", c.BlockSize)
	}
	if c.Sealer == nil {
		return errors.New("sqrtoram: Sealer is required")
	}
	if c.RNG == nil {
		return errors.New("sqrtoram: RNG is required")
	}
	if c.Period < 0 || c.ShufflePasses < 0 {
		return errors.New("sqrtoram: Period and ShufflePasses must be non-negative")
	}
	return nil
}

// SlotSize returns the sealed on-device slot size implied by cfg.
func (c Config) SlotSize() int { return record.SlotSize(c.BlockSize, c.Sealer) }

// Stats counts scheme-level work.
type Stats struct {
	Accesses    int64 // logical accesses
	ShelterHits int64 // requests served from the shelter
	DummyReads  int64 // dummy slots consumed to mask shelter hits
	Shuffles    int64 // full reshuffles performed
}

// ORAM is a square-root ORAM over one storage device. Not safe for
// concurrent use.
type ORAM struct {
	cfg     Config
	dev     device.Backend
	period  int64
	dummies int64
	passes  int

	// perm maps virtual index → device slot. Virtual indices [0,N) are
	// the real blocks by address; [N, N+dummies) are the dummies.
	perm    []int64
	shelter *stash.Stash
	used    int64 // accesses this period (== dummies consumed ceiling)
	stats   Stats

	codec   *record.Codec
	slotBuf []byte // sealed-slot scratch
	pt      []byte // record-plaintext scratch
}

// New builds the ORAM, writing an initial permuted store of sealed
// zero blocks and dummies (setup, via the device's raw path).
func New(cfg Config, dev device.Backend) (*ORAM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if dev == nil {
		return nil, errors.New("sqrtoram: nil device")
	}
	if dev.SlotSize() != cfg.SlotSize() {
		return nil, fmt.Errorf("sqrtoram: device slot size %d, config needs %d", dev.SlotSize(), cfg.SlotSize())
	}
	dummies := int64(math.Ceil(math.Sqrt(float64(cfg.Blocks))))
	period := cfg.Period
	if period == 0 {
		period = dummies
	}
	if period > dummies {
		return nil, fmt.Errorf("sqrtoram: period %d exceeds dummy count %d; a hit run would exhaust the dummies", period, dummies)
	}
	passes := cfg.ShufflePasses
	if passes == 0 {
		passes = 4
	}
	total := cfg.Blocks + dummies
	if dev.Slots() < total {
		return nil, fmt.Errorf("sqrtoram: device has %d slots, need %d", dev.Slots(), total)
	}
	o := &ORAM{
		cfg:     cfg,
		dev:     dev,
		period:  period,
		dummies: dummies,
		passes:  passes,
		perm:    make([]int64, total),
		shelter: stash.New(0),
		codec:   record.New(cfg.Sealer, cfg.BlockSize),
	}
	o.slotBuf = make([]byte, o.codec.SlotSize())
	o.pt = make([]byte, o.codec.PtSize())
	if err := o.initStore(); err != nil {
		return nil, err
	}
	return o, nil
}

// initStore writes a freshly permuted store of zero blocks + dummies
// without charging simulated time.
func (o *ORAM) initStore() error {
	total := int64(len(o.perm))
	p := o.cfg.RNG.Perm(int(total))
	for v := int64(0); v < total; v++ {
		o.perm[v] = int64(p[v])
	}
	for v := int64(0); v < total; v++ {
		addr := v
		if v >= o.cfg.Blocks {
			addr = record.DummyAddr
		}
		if err := o.codec.Seal(o.slotBuf, o.pt, addr, nil); err != nil {
			return err
		}
		if err := o.dev.WriteRaw(o.perm[v], o.slotBuf); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns scheme-level counters.
func (o *ORAM) Stats() Stats { return o.stats }

// Period returns the reshuffle period T.
func (o *ORAM) Period() int64 { return o.period }

// Dummies returns the dummy block count.
func (o *ORAM) Dummies() int64 { return o.dummies }

// ShelterLen returns current shelter occupancy.
func (o *ORAM) ShelterLen() int { return o.shelter.Len() }

// Op selects the access type.
type Op uint8

// Access operations.
const (
	OpRead Op = iota
	OpWrite
)

// Access performs one square-root ORAM operation.
func (o *ORAM) Access(op Op, addr int64, data []byte) ([]byte, error) {
	if addr < 0 || addr >= o.cfg.Blocks {
		return nil, fmt.Errorf("sqrtoram: address %d out of range [0,%d)", addr, o.cfg.Blocks)
	}
	if op == OpWrite && len(data) != o.cfg.BlockSize {
		return nil, fmt.Errorf("sqrtoram: write payload %d bytes, want %d", len(data), o.cfg.BlockSize)
	}

	var current []byte
	if held, ok := o.shelter.Get(addr); ok {
		// Shelter hit: consume the next unread dummy so the storage
		// still sees exactly one fresh slot read.
		o.stats.ShelterHits++
		dummySlot := o.perm[o.cfg.Blocks+o.used]
		if err := o.dev.Read(dummySlot, o.slotBuf); err != nil {
			return nil, err
		}
		if _, _, err := o.codec.OpenInto(o.pt, o.slotBuf); err != nil {
			return nil, err
		}
		o.stats.DummyReads++
		current = held
	} else {
		slot := o.perm[addr]
		if err := o.dev.Read(slot, o.slotBuf); err != nil {
			return nil, err
		}
		gotAddr, payload, err := o.codec.OpenInto(o.pt, o.slotBuf)
		if err != nil {
			return nil, err
		}
		if gotAddr != addr {
			return nil, fmt.Errorf("sqrtoram: slot %d holds block %d, want %d", slot, gotAddr, addr)
		}
		current = make([]byte, o.cfg.BlockSize) // payload aliases o.pt
		copy(current, payload)
		if err := o.shelter.Put(addr, current); err != nil {
			return nil, err
		}
	}

	out := make([]byte, o.cfg.BlockSize)
	copy(out, current)
	if op == OpWrite {
		stored := make([]byte, o.cfg.BlockSize)
		copy(stored, data)
		if err := o.shelter.Put(addr, stored); err != nil {
			return nil, err
		}
	}

	o.used++
	o.stats.Accesses++
	if o.used >= o.period {
		if err := o.reshuffle(); err != nil {
			return nil, err
		}
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

// reshuffle rebuilds the store under a fresh permutation, charging
// ShufflePasses whole-store read+write passes to model the oblivious
// external shuffle, then clears the shelter.
func (o *ORAM) reshuffle() error {
	total := int64(len(o.perm))

	// Collect current contents: one sequential pass (part of pass 1).
	contents := make([][]byte, o.cfg.Blocks)
	for slot := int64(0); slot < total; slot++ {
		if err := o.dev.Read(slot, o.slotBuf); err != nil {
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
		contents[addr] = owned
	}
	// Shelter copies are newer.
	for _, b := range o.shelter.Drain() {
		contents[b.Addr] = b.Data
	}

	// Fresh permutation; sequential write-back (completes pass 1).
	p := o.cfg.RNG.Perm(int(total))
	for v := int64(0); v < total; v++ {
		o.perm[v] = int64(p[v])
	}
	// Write in slot order so the device sees a sequential stream.
	bySlot := make([]int64, total) // slot → virtual index
	for v := int64(0); v < total; v++ {
		bySlot[o.perm[v]] = v
	}
	for slot := int64(0); slot < total; slot++ {
		v := bySlot[slot]
		addr := v
		var payload []byte
		if v >= o.cfg.Blocks {
			addr = record.DummyAddr
		} else {
			payload = contents[v]
		}
		if err := o.codec.Seal(o.slotBuf, o.pt, addr, payload); err != nil {
			return err
		}
		if err := o.dev.Write(slot, o.slotBuf); err != nil {
			return err
		}
	}

	// Remaining passes of the oblivious shuffle: the Melbourne-style
	// algorithms re-read and re-write the store. Model each pass as a
	// sequential read of every slot followed by a rewrite of the same
	// content (so the store is charged the traffic but unchanged).
	for pass := 1; pass < o.passes; pass++ {
		for slot := int64(0); slot < total; slot++ {
			if err := o.dev.Read(slot, o.slotBuf); err != nil {
				return err
			}
			if err := o.dev.Write(slot, o.slotBuf); err != nil {
				return err
			}
		}
	}

	o.used = 0
	o.stats.Shuffles++
	return nil
}
