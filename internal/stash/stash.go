// Package stash implements the trusted-memory stash every ORAM scheme
// in this repository keeps inside the secure controller: blocks that
// have been fetched but not yet written back. The stash tracks its
// peak occupancy, the statistic Path ORAM's security argument bounds.
package stash

import (
	"fmt"
	"slices"
)

// Block is a plaintext ORAM block held in the stash.
type Block struct {
	Addr int64  // logical block address
	Data []byte // plaintext payload; owned by the stash while stored
}

// Stash holds plaintext blocks keyed by logical address. The zero
// value is not usable; call New. Stash is not safe for concurrent use.
type Stash struct {
	blocks map[int64]held
	limit  int // 0 = unbounded
	peak   int
}

// held is one stored block: its payload and the Path ORAM leaf it is
// mapped to (NoLeaf when stored with Put).
type held struct {
	data []byte
	leaf int64
}

// New returns an empty stash. limit caps occupancy (Put fails beyond
// it); limit 0 means unbounded, which is how the statistics-gathering
// experiments run so that overflow shows up as a measured peak rather
// than an error.
func New(limit int) *Stash {
	return &Stash{blocks: make(map[int64]held), limit: limit}
}

// ErrFull is returned by Put when a bounded stash is at capacity.
type ErrFull struct {
	Limit int
}

func (e ErrFull) Error() string {
	return fmt.Sprintf("stash: full at limit %d", e.Limit)
}

// Put stores data under addr with leaf NoLeaf, replacing any previous
// value. The stash takes ownership of data.
func (s *Stash) Put(addr int64, data []byte) error { return s.PutLeaf(addr, NoLeaf, data) }

// PutLeaf stores data under addr together with the Path ORAM leaf the
// block is mapped to, replacing any previous value: the leaf travels
// with the block, so eviction needs no position map. The stash takes
// ownership of data.
func (s *Stash) PutLeaf(addr, leaf int64, data []byte) error {
	if _, exists := s.blocks[addr]; !exists {
		if s.limit > 0 && len(s.blocks) >= s.limit {
			return ErrFull{Limit: s.limit}
		}
	}
	s.blocks[addr] = held{data: data, leaf: leaf}
	if len(s.blocks) > s.peak {
		s.peak = len(s.blocks)
	}
	return nil
}

// Get returns the block stored under addr without removing it. The
// returned slice is the stash's copy; callers must not retain it past
// the next mutation of this address.
func (s *Stash) Get(addr int64) ([]byte, bool) {
	h, ok := s.blocks[addr]
	return h.data, ok
}

// Take removes and returns the block stored under addr.
func (s *Stash) Take(addr int64) ([]byte, bool) {
	h, ok := s.blocks[addr]
	if ok {
		delete(s.blocks, addr)
	}
	return h.data, ok
}

// Has reports whether addr is present.
func (s *Stash) Has(addr int64) bool {
	_, ok := s.blocks[addr]
	return ok
}

// Len returns the current occupancy.
func (s *Stash) Len() int { return len(s.blocks) }

// Peak returns the highest occupancy ever observed.
func (s *Stash) Peak() int { return s.peak }

// Limit returns the configured capacity (0 = unbounded).
func (s *Stash) Limit() int { return s.limit }

// Addrs returns the stored addresses in ascending order. Deterministic
// ordering keeps eviction — and therefore whole experiments —
// reproducible under a fixed seed.
func (s *Stash) Addrs() []int64 {
	return s.AppendAddrs(nil)
}

// AppendAddrs appends the stored addresses to dst in ascending order
// and returns the extended slice — the allocation-free form of Addrs
// for hot paths that keep a reusable buffer (pass dst[:0]).
func (s *Stash) AppendAddrs(dst []int64) []int64 {
	start := len(dst)
	if need := start + len(s.blocks); cap(dst) < need {
		grown := make([]int64, start, need)
		copy(grown, dst)
		dst = grown
	}
	for a := range s.blocks {
		dst = append(dst, a)
	}
	slices.Sort(dst[start:])
	return dst
}

// AppendLeaves appends to dst the leaf stored with each address of
// addrs, in order, and returns the extended slice; NoLeaf for an
// address stored with Put or not present. With addrs from AppendAddrs
// it is the stash's (address, leaf) snapshot.
func (s *Stash) AppendLeaves(dst, addrs []int64) []int64 {
	for _, a := range addrs {
		h, ok := s.blocks[a]
		if !ok {
			h.leaf = NoLeaf
		}
		dst = append(dst, h.leaf)
	}
	return dst
}

// Drain removes and returns all blocks in ascending address order.
// It swaps in a fresh map rather than deleting entry by entry: a Go
// map never shrinks, so after a whole tree passed through it every
// later AppendAddrs would walk thousands of empty groups.
func (s *Stash) Drain() []Block {
	addrs := s.Addrs()
	out := make([]Block, 0, len(addrs))
	for _, a := range addrs {
		out = append(out, Block{Addr: a, Data: s.blocks[a].data})
	}
	s.blocks = make(map[int64]held)
	return out
}
