// Constant-time stash: the dense-slot-array variant behind
// config.ConstantTime. The map stash's hash lookups, deletes and
// sorted-address enumeration all take time (and touch memory) as a
// function of which addresses are resident — exactly the secret a
// co-located timing adversary is after. This variant stores blocks in
// one dense, address-sorted slot array and implements every operation
// as a full-length fixed-order scan with branchless selects, so the
// instruction and memory-touch sequence of Put/Get/Take/Has depends
// only on the stash's public capacity, never on which addresses are
// present or asked for.
//
// Two deliberate deviations from perfect constant time, both
// documented at the call sites: the ErrFull refusal on Put can branch
// on presence when the stash is exactly at capacity (a failure path
// that aborts the access anyway), and Drain/Addrs run in time
// proportional to the public occupancy count (Path ORAM's stash-size
// distribution is access-pattern independent, which is the scheme's
// own security argument for exposing it).
package stash

import (
	"fmt"
	"math"

	"repro/internal/ctops"
)

// Every function in this file runs under the constant-time contract:
// the ctflow analyzer flags any secret-dependent branch, index or
// variable-length operation, and ctmask checks that every masked
// select's mask traces back to a constant-time comparison.
//
//horam:constant-time

// Empty is the address sentinel an unoccupied constant-time slot
// holds. It sorts after every valid address, so the occupied slots
// always form the sorted prefix of the array.
const Empty = int64(math.MaxInt64)

// NoLeaf is the leaf an unoccupied constant-time slot carries, and the
// one Put stores. It equals posmap.NoLeaf, so a stash leaf compares
// directly against a position-map leaf.
const NoLeaf = int64(-1)

// Store is the stash contract pathoram consumes: the map Stash and the
// constant-time CT both satisfy it.
type Store interface {
	Put(addr int64, data []byte) error
	Get(addr int64) ([]byte, bool)
	Take(addr int64) ([]byte, bool)
	Has(addr int64) bool
	Len() int
	Peak() int
	Limit() int
	Addrs() []int64
	AppendAddrs(dst []int64) []int64
	Drain() []Block
}

var (
	_ Store = (*Stash)(nil)
	_ Store = (*CT)(nil)
)

// CT is the constant-time stash. The zero value is not usable; call
// NewConstantTime. Like Stash, it is not safe for concurrent use.
//
// Contract differences from the map Stash, beyond timing: capacity is
// always bounded (there is no "unbounded" mode — the dense array IS
// the scan length), payloads are capped at the configured block size,
// and Get returns a scratch buffer that is only valid until the next
// operation on the stash (Take returns an owned copy).
type CT struct {
	capacity  int
	blockSize int
	// The stored addresses are the access-pattern secret: which blocks
	// are resident is exactly what an observer must not learn.
	//
	//horam:secret
	addrs []int64 // sorted ascending; Empty sentinels form the suffix
	// Each block's Path ORAM leaf travels with it, so eviction reads
	// the leaf where the block is instead of joining the position map.
	//
	//horam:secret
	leaves []int64 // indexed like addrs; NoLeaf in unoccupied slots
	lens   []int   // stored payload length per slot
	slab   []byte  // capacity × blockSize payload backing
	count  int
	peak   int
	out    []byte // Get/Has scan target, reused across calls
	pad    []byte // Put staging: payload zero-padded to blockSize
	zero   []byte // all-zero block for masked clears
}

// NewConstantTime returns an empty constant-time stash holding at most
// capacity blocks of at most blockSize bytes each. Every operation
// scans all capacity slots, so capacity should be the tightest public
// bound on how many blocks the caller can ever hold at once (pathoram:
// its StashLimit, else min(tree slots, Blocks)).
func NewConstantTime(capacity, blockSize int) *CT {
	if capacity <= 0 {
		panic(fmt.Sprintf("stash: constant-time capacity must be positive, got %d", capacity))
	}
	if blockSize <= 0 {
		panic(fmt.Sprintf("stash: constant-time block size must be positive, got %d", blockSize))
	}
	s := &CT{
		capacity:  capacity,
		blockSize: blockSize,
		addrs:     make([]int64, capacity),
		leaves:    make([]int64, capacity),
		lens:      make([]int, capacity),
		slab:      make([]byte, capacity*blockSize),
		out:       make([]byte, blockSize),
		pad:       make([]byte, blockSize),
		zero:      make([]byte, blockSize),
	}
	for i := range s.addrs {
		s.addrs[i] = Empty
		s.leaves[i] = NoLeaf
	}
	return s
}

// Capacity returns the fixed scan length.
func (s *CT) Capacity() int { return s.capacity }

// BlockSize returns the per-slot payload bound.
func (s *CT) BlockSize() int { return s.blockSize }

func (s *CT) slot(i int) []byte { return s.slab[i*s.blockSize : (i+1)*s.blockSize] }

// Put stores data under addr with leaf NoLeaf, replacing any previous
// value; the data is copied into the slot array (the caller keeps
// ownership of its buffer, unlike the map stash). Equivalent to
// PutMasked(1, addr, NoLeaf, data).
//
//horam:secret addr
func (s *CT) Put(addr int64, data []byte) error { return s.PutMasked(1, addr, NoLeaf, data) }

// PutMasked stores data and leaf under addr when v == 1 (replacing
// both if addr is present) and is a fixed-cost no-op when v == 0: the
// same full-length scan and shift passes run either way, with every
// write masked out. pathoram's read-path uses it to absorb a path's
// slots without revealing which of them carried real blocks. When
// v == 0 the addr and leaf operands are ignored (they may be dummy
// sentinels); when v == 1 addr must be a valid non-negative address.
//
//horam:secret addr leaf
func (s *CT) PutMasked(v int, addr, leaf int64, data []byte) error {
	if len(data) > s.blockSize {
		return fmt.Errorf("stash: payload %d bytes exceeds constant-time slot size %d", len(data), s.blockSize)
	}
	a := ctops.Select64(v, addr, 0)
	n := copy(s.pad, data)
	for i := n; i < len(s.pad); i++ {
		s.pad[i] = 0
	}
	present := 0
	for i := range s.addrs {
		present |= ctops.Eq64(s.addrs[i], a)
	}
	present &= v
	doInsert := v & (present ^ 1)
	// The one data-dependent branch: refusing an insert at capacity.
	// The overflow mask is composed branchlessly (no short-circuit on
	// doInsert), so below capacity the instruction stream is identical
	// for inserts and replacements; the branch only fires on the
	// failure path, which aborts the enclosing access anyway.
	overflow := doInsert & ctops.GeInt(s.count, s.capacity)
	if overflow == 1 {
		return ErrFull{Limit: s.capacity}
	}
	// Insertion position: how many stored addresses sort below a.
	// Empty sentinels never do, so pos lands inside the sorted prefix.
	pos := 0
	for i := range s.addrs {
		pos += ctops.Lt64(s.addrs[i], a)
	}
	// Backward shift pass: open the slot at pos when inserting.
	for i := s.capacity - 1; i >= 1; i-- {
		mv := doInsert & ctops.GeInt(i-1, pos)
		s.addrs[i] = ctops.Select64(mv, s.addrs[i-1], s.addrs[i])
		s.leaves[i] = ctops.Select64(mv, s.leaves[i-1], s.leaves[i])
		s.lens[i] = ctops.SelectInt(mv, s.lens[i-1], s.lens[i])
		ctops.CopyBytes(mv, s.slot(i), s.slot(i-1))
	}
	// Write pass: land the padded payload at the match (replace) or at
	// the opened slot (insert).
	for i := range s.addrs {
		w := (present & ctops.Eq64(s.addrs[i], a)) | (doInsert & ctops.EqInt(i, pos))
		s.addrs[i] = ctops.Select64(w, a, s.addrs[i])
		s.leaves[i] = ctops.Select64(w, leaf, s.leaves[i])
		s.lens[i] = ctops.SelectInt(w, len(data), s.lens[i])
		ctops.CopyBytes(w, s.slot(i), s.pad)
	}
	s.count += doInsert
	if s.count > s.peak {
		s.peak = s.count
	}
	return nil
}

// scan is the shared full-length lookup: it accumulates the match
// flag, slot position and stored length, and gathers the payload into
// s.out, touching every slot exactly once in fixed order. Its results
// are established 0-or-1 masks and mask-selected public quantities.
//
//horam:mask
//horam:secret addr
func (s *CT) scan(addr int64) (found, pos, n int) {
	for i := range s.addrs {
		m := ctops.Eq64(s.addrs[i], addr)
		found |= m
		pos = ctops.SelectInt(m, i, pos)
		n = ctops.SelectInt(m, s.lens[i], n)
		ctops.CopyBytes(m, s.out, s.slot(i))
	}
	return found, pos, n
}

// Get returns the block stored under addr without removing it. The
// returned slice is a scratch buffer valid only until the next
// operation on this stash.
//
//horam:secret addr
func (s *CT) Get(addr int64) ([]byte, bool) {
	found, _, n := s.scan(addr)
	if found == 0 {
		return nil, false
	}
	return s.out[:n], true
}

// Take removes and returns the block stored under addr. The returned
// slice is freshly allocated and owned by the caller. The removal
// shift pass runs in full whether or not the address was present.
//
//horam:secret addr
func (s *CT) Take(addr int64) ([]byte, bool) {
	found, pos, n := s.scan(addr)
	out := make([]byte, s.blockSize)
	copy(out, s.out)
	// Close the gap at pos: every slot at or past it slides down one.
	for i := 0; i < s.capacity-1; i++ {
		mv := found & ctops.GeInt(i, pos)
		s.addrs[i] = ctops.Select64(mv, s.addrs[i+1], s.addrs[i])
		s.leaves[i] = ctops.Select64(mv, s.leaves[i+1], s.leaves[i])
		s.lens[i] = ctops.SelectInt(mv, s.lens[i+1], s.lens[i])
		ctops.CopyBytes(mv, s.slot(i), s.slot(i+1))
	}
	last := s.capacity - 1
	s.addrs[last] = ctops.Select64(found, Empty, s.addrs[last])
	s.leaves[last] = ctops.Select64(found, NoLeaf, s.leaves[last])
	s.lens[last] = ctops.SelectInt(found, 0, s.lens[last])
	ctops.CopyBytes(found, s.slot(last), s.zero)
	s.count -= found
	if found == 0 {
		return nil, false
	}
	return out[:n], true
}

// Has reports whether addr is present, via the same full scan as Get.
//
//horam:secret addr
func (s *CT) Has(addr int64) bool {
	found, _, _ := s.scan(addr)
	return found == 1
}

// Len returns the current occupancy.
func (s *CT) Len() int { return s.count }

// Peak returns the highest occupancy ever observed.
func (s *CT) Peak() int { return s.peak }

// Limit returns the capacity (a constant-time stash is always
// bounded).
func (s *CT) Limit() int { return s.capacity }

// Addrs returns the stored addresses in ascending order. The sorted
// prefix IS the ascending order, so this is a straight copy whose cost
// depends only on the public occupancy count.
func (s *CT) Addrs() []int64 { return s.AppendAddrs(nil) }

// AppendAddrs appends the stored addresses to dst in ascending order.
func (s *CT) AppendAddrs(dst []int64) []int64 {
	return append(dst, s.addrs[:s.count]...)
}

// Drain removes and returns all blocks in ascending address order.
func (s *CT) Drain() []Block {
	out := make([]Block, 0, s.count)
	for i := 0; i < s.count; i++ {
		data := make([]byte, s.lens[i])
		copy(data, s.slot(i))
		out = append(out, Block{Addr: s.addrs[i], Data: data})
	}
	for i := range s.addrs {
		s.addrs[i] = Empty
		s.leaves[i] = NoLeaf
		s.lens[i] = 0
	}
	for i := range s.slab {
		s.slab[i] = 0
	}
	s.count = 0
	return out
}

// SnapshotAddrs appends the FULL fixed-length address array — Empty
// sentinels included — to dst. pathoram's constant-time eviction scans
// this snapshot so its candidate enumeration has a fixed length.
func (s *CT) SnapshotAddrs(dst []int64) []int64 {
	return append(dst, s.addrs...)
}

// SnapshotLeaves appends the FULL fixed-length leaf array to dst,
// indexed like SnapshotAddrs: entry i is the leaf of the block whose
// address is SnapshotAddrs' entry i, NoLeaf where that is Empty.
func (s *CT) SnapshotLeaves(dst []int64) []int64 {
	return append(dst, s.leaves...)
}

// CopySlotMasked copies slot i's payload bytes into dst when v == 1
// and leaves dst unchanged when v == 0; slot i is read in full either
// way. dst must be exactly BlockSize bytes.
func (s *CT) CopySlotMasked(v, i int, dst []byte) {
	ctops.CopyBytes(v, dst, s.slot(i))
}

// RemoveMasked removes every slot whose mask entry is 1, preserving
// order, in exactly `removals` fixed-cost passes (each pass extracts
// at most one marked slot; surplus passes are masked no-ops). mask
// must have Capacity() entries, indexed like a SnapshotAddrs taken
// with no intervening mutations; it is consumed.
func (s *CT) RemoveMasked(mask []int, removals int) {
	if len(mask) != s.capacity {
		panic(fmt.Sprintf("stash: RemoveMasked mask has %d entries, capacity is %d", len(mask), s.capacity))
	}
	last := s.capacity - 1
	for r := 0; r < removals; r++ {
		// Lowest marked index this pass.
		found, pos := 0, 0
		for i := range mask {
			m := mask[i] & (found ^ 1)
			pos = ctops.SelectInt(m, i, pos)
			found |= m
		}
		// Clear its mark, then slide slots and marks down together.
		for i := range mask {
			mask[i] = ctops.SelectInt(found&ctops.EqInt(i, pos), 0, mask[i])
		}
		for i := 0; i < last; i++ {
			mv := found & ctops.GeInt(i, pos)
			s.addrs[i] = ctops.Select64(mv, s.addrs[i+1], s.addrs[i])
			s.leaves[i] = ctops.Select64(mv, s.leaves[i+1], s.leaves[i])
			s.lens[i] = ctops.SelectInt(mv, s.lens[i+1], s.lens[i])
			mask[i] = ctops.SelectInt(mv, mask[i+1], mask[i])
			ctops.CopyBytes(mv, s.slot(i), s.slot(i+1))
		}
		s.addrs[last] = ctops.Select64(found, Empty, s.addrs[last])
		s.leaves[last] = ctops.Select64(found, NoLeaf, s.leaves[last])
		s.lens[last] = ctops.SelectInt(found, 0, s.lens[last])
		mask[last] = ctops.SelectInt(found, 0, mask[last])
		ctops.CopyBytes(found, s.slot(last), s.zero)
		s.count -= found
	}
}
