// Constant-time stash: the variant behind config.ConstantTime. The map
// stash's hash lookups, deletes and sorted-address enumeration all take
// time (and touch memory) as a function of which addresses are
// resident — exactly the secret a co-located timing adversary is after.
// This variant implements every operation as full-length fixed-order
// passes with branchless selects, so the instruction and memory-touch
// sequence of Put/Get/Take/Has/RemoveMasked depends only on the stash's
// public capacity, never on which addresses are present or asked for.
//
// Layout: payloads live in a fixed pool of capacity slots and never
// move. What the masked passes sort, shift and compact is a dense,
// address-sorted array of 4-word entries (address, leaf, length, pool
// slot). The entries past the occupancy hold the pool slots that are
// free, so the pool-slot column is always a permutation of
// 0..capacity−1: an insert takes the free slot the last entry carries,
// and a removal rotates the freed slot to the tail. Which pool slot
// holds a block follows the insert and removal history, which follows
// the addresses, so the pool is only ever touched by whole-pool masked
// passes and never indexed by that column.
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

// Empty is the address sentinel an unoccupied constant-time entry
// holds. It sorts after every valid address, so the occupied entries
// always form the sorted prefix of the array.
const Empty = int64(math.MaxInt64)

// NoLeaf is the leaf an unoccupied constant-time entry carries, and the
// one Put stores in either stash. It equals posmap.NoLeaf, so a stash
// leaf compares directly against a recorded leaf.
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
// always bounded (there is no "unbounded" mode — the entry array IS
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
	leaves []int64 // indexed like addrs; NoLeaf in unoccupied entries
	lens   []int   // stored payload length per entry
	// The pool slot of each entry's payload; a free slot in unoccupied
	// entries. Always a permutation of 0..capacity−1.
	//
	//horam:secret
	phys  []int
	pool  []byte // capacity × blockSize payloads, indexed by pool slot
	count int
	peak  int
	out   []byte // Get/Has gather target, reused across calls
	pad   []byte // Put staging: payload zero-padded to blockSize
}

// NewConstantTime returns an empty constant-time stash holding at most
// capacity blocks of at most blockSize bytes each. Every operation
// scans all capacity entries, so capacity should be the tightest public
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
		phys:      make([]int, capacity),
		pool:      make([]byte, capacity*blockSize),
		out:       make([]byte, blockSize),
		pad:       make([]byte, blockSize),
	}
	for i := range s.addrs {
		s.addrs[i] = Empty
		s.leaves[i] = NoLeaf
		s.phys[i] = i
	}
	return s
}

// Capacity returns the fixed scan length.
func (s *CT) Capacity() int { return s.capacity }

// BlockSize returns the per-slot payload bound.
func (s *CT) BlockSize() int { return s.blockSize }

// slot returns pool slot p. Only whole-pool passes call it, with the
// public loop index; a pool slot taken from phys is secret and goes
// through GatherMasked or a masked write pass instead.
func (s *CT) slot(p int) []byte { return s.pool[p*s.blockSize : (p+1)*s.blockSize] }

// Put stores data under addr with leaf NoLeaf, replacing any previous
// value; the data is copied into the pool (the caller keeps ownership
// of its buffer, unlike the map stash). Equivalent to
// PutMasked(1, addr, NoLeaf, data).
//
//horam:secret addr
func (s *CT) Put(addr int64, data []byte) error { return s.PutMasked(1, addr, NoLeaf, data) }

// PutMasked stores data and leaf under addr when v == 1 (replacing
// both if addr is present) and is a fixed-cost no-op when v == 0: the
// same full-length passes run either way, with every write masked out.
// pathoram's read-path uses it to absorb a path's slots without
// revealing which of them carried real blocks. When v == 0 the addr
// and leaf operands are ignored (they may be dummy sentinels); when
// v == 1 addr must be a valid non-negative address.
//
// The lookup, shift and write passes run over the entries only; the
// payload lands in one masked pass over the pool, in the matching
// entry's pool slot on a replace and in the free slot the last entry
// carries on an insert.
//
//horam:secret addr leaf
func (s *CT) PutMasked(v int, addr, leaf int64, data []byte) error {
	if len(data) > s.blockSize {
		return fmt.Errorf("stash: payload %d bytes exceeds constant-time slot size %d", len(data), s.blockSize)
	}
	a := ctops.Select64(v, addr, 0)
	n := copy(s.pad, data)
	clear(s.pad[n:])
	// Presence, the match's pool slot, and the insertion position: how
	// many stored addresses sort below a. Empty sentinels never do, so
	// pos lands inside the sorted prefix.
	present, target, pos := 0, 0, 0
	for i := range s.addrs {
		m := ctops.Eq64(s.addrs[i], a)
		present |= m
		target = ctops.SelectInt(m, s.phys[i], target)
		pos += ctops.Lt64(s.addrs[i], a)
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
	// Below capacity the last entry is unoccupied, so its pool slot is
	// free; the shift pass drops that entry and the write pass hands
	// its slot to the new one.
	last := s.capacity - 1
	target = ctops.SelectInt(doInsert, s.phys[last], target)
	// Backward shift pass: open the entry at pos when inserting.
	for i := last; i >= 1; i-- {
		mv := doInsert & ctops.GeInt(i-1, pos)
		s.addrs[i] = ctops.Select64(mv, s.addrs[i-1], s.addrs[i])
		s.leaves[i] = ctops.Select64(mv, s.leaves[i-1], s.leaves[i])
		s.lens[i] = ctops.SelectInt(mv, s.lens[i-1], s.lens[i])
		s.phys[i] = ctops.SelectInt(mv, s.phys[i-1], s.phys[i])
	}
	// Write pass: fill the match (replace) or the opened entry (insert).
	for i := range s.addrs {
		w := (present & ctops.Eq64(s.addrs[i], a)) | (doInsert & ctops.EqInt(i, pos))
		s.addrs[i] = ctops.Select64(w, a, s.addrs[i])
		s.leaves[i] = ctops.Select64(w, leaf, s.leaves[i])
		s.lens[i] = ctops.SelectInt(w, len(data), s.lens[i])
		s.phys[i] = ctops.SelectInt(w, target, s.phys[i])
	}
	// Pool pass: land the padded payload in the target slot.
	for p := 0; p < s.capacity; p++ {
		ctops.CopyBytes(v&ctops.EqInt(p, target), s.slot(p), s.pad)
	}
	s.count += doInsert
	if s.count > s.peak {
		s.peak = s.count
	}
	return nil
}

// scan is the shared full-length lookup: it accumulates the match
// flag, entry position, stored length and pool slot, and gathers the
// payload into s.out, touching every entry and every pool slot exactly
// once in fixed order. Its results are established 0-or-1 masks and
// mask-selected quantities.
//
//horam:mask
//horam:secret addr
func (s *CT) scan(addr int64) (found, pos, n, p int) {
	for i := range s.addrs {
		m := ctops.Eq64(s.addrs[i], addr)
		found |= m
		pos = ctops.SelectInt(m, i, pos)
		n = ctops.SelectInt(m, s.lens[i], n)
		p = ctops.SelectInt(m, s.phys[i], p)
	}
	s.GatherMasked(found, p, s.out)
	return found, pos, n, p
}

// GatherMasked copies pool slot p's payload into dst when v == 1 and
// leaves dst unchanged when v == 0. Every pool slot is read in full
// either way, so which slot p names never shows in the touch sequence.
// dst must be exactly BlockSize bytes; p is an entry of SnapshotSlots.
//
//horam:secret p
func (s *CT) GatherMasked(v, p int, dst []byte) {
	for q := 0; q < s.capacity; q++ {
		ctops.CopyBytes(v&ctops.EqInt(q, p), dst, s.slot(q))
	}
}

// Get returns the block stored under addr without removing it. The
// returned slice is a scratch buffer valid only until the next
// operation on this stash.
//
//horam:secret addr
func (s *CT) Get(addr int64) ([]byte, bool) {
	found, _, n, _ := s.scan(addr)
	if found == 0 {
		return nil, false
	}
	return s.out[:n], true
}

// Take removes and returns the block stored under addr. The returned
// slice is freshly allocated and owned by the caller. The removal pass
// runs in full whether or not the address was present.
//
//horam:secret addr
func (s *CT) Take(addr int64) ([]byte, bool) {
	found, pos, n, p := s.scan(addr)
	out := make([]byte, s.blockSize)
	copy(out, s.out)
	// Close the gap at pos: every entry past it slides down one, and
	// the freed pool slot rotates to the last entry.
	last := s.capacity - 1
	for i := 0; i < last; i++ {
		mv := found & ctops.GeInt(i, pos)
		s.addrs[i] = ctops.Select64(mv, s.addrs[i+1], s.addrs[i])
		s.leaves[i] = ctops.Select64(mv, s.leaves[i+1], s.leaves[i])
		s.lens[i] = ctops.SelectInt(mv, s.lens[i+1], s.lens[i])
		s.phys[i] = ctops.SelectInt(mv, s.phys[i+1], s.phys[i])
	}
	s.addrs[last] = ctops.Select64(found, Empty, s.addrs[last])
	s.leaves[last] = ctops.Select64(found, NoLeaf, s.leaves[last])
	s.lens[last] = ctops.SelectInt(found, 0, s.lens[last])
	s.phys[last] = ctops.SelectInt(found, p, s.phys[last])
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
	found, _, _, _ := s.scan(addr)
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
// Each payload is gathered by a whole-pool pass, and the pool is then
// zeroed.
func (s *CT) Drain() []Block {
	out := make([]Block, 0, s.count)
	for i := 0; i < s.count; i++ {
		s.GatherMasked(1, s.phys[i], s.out)
		data := make([]byte, s.lens[i])
		copy(data, s.out)
		out = append(out, Block{Addr: s.addrs[i], Data: data})
	}
	for i := range s.addrs {
		s.addrs[i] = Empty
		s.leaves[i] = NoLeaf
		s.lens[i] = 0
	}
	clear(s.pool)
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

// SnapshotSlots appends the FULL fixed-length pool-slot column to dst,
// indexed like SnapshotAddrs: entry i is the pool slot GatherMasked
// reads for the block whose address is SnapshotAddrs' entry i.
func (s *CT) SnapshotSlots(dst []int) []int {
	return append(dst, s.phys...)
}

// RemoveMasked removes every entry whose mask entry is 1, preserving
// the order of the rest, in a fixed number of passes that move entries
// only, never payloads. mask must have Capacity() entries, indexed like
// a SnapshotAddrs taken with no intervening mutations; marks on
// unoccupied entries are ignored. It is consumed: the passes below
// overwrite it with distances.
//
// The clear pass empties each marked entry where it stands (it keeps
// its pool slot, now free) and stores in mask each other entry's
// distance, the number of marked entries before it. Then come
// ⌈log₂ Capacity⌉ passes, lowest distance bit first: in pass j every
// entry whose distance has bit j set swaps with the entry 2^j below it.
// That entry is always an emptied one (the order-preserving compaction
// network of Goodrich, SPAA 2011, is collision-free), so the survivors
// close ranks in order while the emptied entries, and the free pool
// slots they carry, rise to the tail.
func (s *CT) RemoveMasked(mask []int) {
	if len(mask) != s.capacity {
		panic(fmt.Sprintf("stash: RemoveMasked mask has %d entries, capacity is %d", len(mask), s.capacity))
	}
	removed := 0
	for i := range mask {
		m := ctops.EqInt(mask[i], 1) & (ctops.Eq64(s.addrs[i], Empty) ^ 1)
		s.addrs[i] = ctops.Select64(m, Empty, s.addrs[i])
		s.leaves[i] = ctops.Select64(m, NoLeaf, s.leaves[i])
		s.lens[i] = ctops.SelectInt(m, 0, s.lens[i])
		mask[i] = ctops.SelectInt(m, 0, removed)
		removed += m
	}
	for j := 0; 1<<j < s.capacity; j++ {
		step := 1 << j
		for i := step; i < s.capacity; i++ {
			// Swap entry i, with its distance, and entry k when bit j of
			// the distance is set; both are rewritten either way.
			v, k := ctops.EqInt(mask[i]>>j&1, 1), i-step
			s.addrs[i], s.addrs[k] = ctops.Select64(v, s.addrs[k], s.addrs[i]), ctops.Select64(v, s.addrs[i], s.addrs[k])
			s.leaves[i], s.leaves[k] = ctops.Select64(v, s.leaves[k], s.leaves[i]), ctops.Select64(v, s.leaves[i], s.leaves[k])
			s.lens[i], s.lens[k] = ctops.SelectInt(v, s.lens[k], s.lens[i]), ctops.SelectInt(v, s.lens[i], s.lens[k])
			s.phys[i], s.phys[k] = ctops.SelectInt(v, s.phys[k], s.phys[i]), ctops.SelectInt(v, s.phys[i], s.phys[k])
			mask[i], mask[k] = ctops.SelectInt(v, mask[k], mask[i]), ctops.SelectInt(v, mask[i], mask[k])
		}
	}
	s.count -= removed
}
