package stash

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The constant-time stash keeps payloads in a fixed pool and moves only
// entries. These tests pin the order-preserving compaction of
// RemoveMasked against a reference at many capacities, and check that
// the pool-slot column stays a permutation and the payloads stay with
// their addresses through a seeded mix of every mutating operation.

// poolPayload is the deterministic payload stored under addr.
func poolPayload(addr int64, blockSize int) []byte {
	p := make([]byte, blockSize)
	for i := range p {
		p[i] = byte(int(addr)*131 + i*7 + 1)
	}
	return p
}

// checkPermutation fails unless the pool-slot column holds every slot
// 0..capacity−1 exactly once.
func checkPermutation(t *testing.T, s *CT, what string) {
	t.Helper()
	slots := s.SnapshotSlots(nil)
	seen := make([]bool, s.Capacity())
	for i, p := range slots {
		if p < 0 || p >= s.Capacity() || seen[p] {
			t.Fatalf("%s: pool-slot column %v is not a permutation of 0..%d (entry %d)", what, slots, s.Capacity()-1, i)
		}
		seen[p] = true
	}
}

// checkContents fails unless s holds exactly want, in order, each
// address with leaf addr+1000 and poolPayload, and Empty/NoLeaf past
// the occupancy.
func checkContents(t *testing.T, s *CT, want []int64, what string) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", what, s.Len(), len(want))
	}
	addrs, leaves := s.SnapshotAddrs(nil), s.SnapshotLeaves(nil)
	for i := range addrs {
		if i >= len(want) {
			if addrs[i] != Empty || leaves[i] != NoLeaf {
				t.Fatalf("%s: entry %d past the occupancy holds addr %d leaf %d", what, i, addrs[i], leaves[i])
			}
			continue
		}
		if addrs[i] != want[i] || leaves[i] != want[i]+1000 {
			t.Fatalf("%s: entry %d holds addr %d leaf %d, want addr %d leaf %d", what, i, addrs[i], leaves[i], want[i], want[i]+1000)
		}
		if got, ok := s.Get(want[i]); !ok || !bytes.Equal(got, poolPayload(want[i], s.BlockSize())) {
			t.Fatalf("%s: addr %d payload %x (found %v)", what, want[i], got, ok)
		}
	}
	checkPermutation(t, s, what)
}

// filledStash returns a stash of capacity c holding addresses
// 0, 2, 4, … (occupancy entries, inserted in descending order so the
// pool slots are not the identity).
func filledStash(t *testing.T, c, occupancy int) *CT {
	t.Helper()
	const blockSize = 8
	s := NewConstantTime(c, blockSize)
	for k := occupancy - 1; k >= 0; k-- {
		addr := int64(2 * k)
		if err := s.PutMasked(1, addr, addr+1000, poolPayload(addr, blockSize)); err != nil {
			t.Fatalf("fill C=%d: %v", c, err)
		}
	}
	return s
}

// clone returns an independent copy of s.
func clone(s *CT) *CT {
	c := *s
	c.addrs = slices.Clone(s.addrs)
	c.leaves = slices.Clone(s.leaves)
	c.lens = slices.Clone(s.lens)
	c.phys = slices.Clone(s.phys)
	c.pool = slices.Clone(s.pool)
	c.out = slices.Clone(s.out)
	c.pad = slices.Clone(s.pad)
	return &c
}

// compactCase removes the entries mask marks from a copy of filled,
// which holds filledStash's occupancy addresses, and checks the result
// against the survivors taken in order.
func compactCase(t *testing.T, filled *CT, occupancy int, mask []int, what string) {
	t.Helper()
	s := clone(filled)
	var want []int64
	for i := 0; i < occupancy; i++ {
		if mask[i] == 0 {
			want = append(want, int64(2*i))
		}
	}
	s.RemoveMasked(append([]int(nil), mask...))
	checkContents(t, s, want, what)
}

// TestCTCompactionMatchesReference runs RemoveMasked at every capacity
// from 1 to 130, at three occupancies, with no marks, all marks (those
// on unoccupied entries are ignored) and random masks.
func TestCTCompactionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	for c := 1; c <= 130; c++ {
		for _, occupancy := range []int{c, c / 2, c - c/3} {
			filled := filledStash(t, c, occupancy)
			none, all := make([]int, c), make([]int, c)
			for i := range all {
				all[i] = 1
			}
			compactCase(t, filled, occupancy, none, fmt.Sprintf("C=%d occupancy=%d no marks", c, occupancy))
			compactCase(t, filled, occupancy, all, fmt.Sprintf("C=%d occupancy=%d all marks", c, occupancy))
			for r := 0; r < 4; r++ {
				mask := make([]int, c)
				for i := 0; i < occupancy; i++ {
					mask[i] = rng.Intn(2)
				}
				compactCase(t, filled, occupancy, mask, fmt.Sprintf("C=%d occupancy=%d random mask %v", c, occupancy, mask))
			}
		}
	}
}

// TestCTCompactionExhaustiveSmall tries every mask over every occupancy
// for capacities up to 10.
func TestCTCompactionExhaustiveSmall(t *testing.T) {
	for c := 1; c <= 10; c++ {
		for occupancy := 0; occupancy <= c; occupancy++ {
			filled := filledStash(t, c, occupancy)
			for bits := 0; bits < 1<<occupancy; bits++ {
				mask := make([]int, c)
				for i := 0; i < occupancy; i++ {
					mask[i] = bits >> i & 1
				}
				compactCase(t, filled, occupancy, mask, fmt.Sprintf("C=%d occupancy=%d mask %v", c, occupancy, mask))
			}
		}
	}
}

// runPoolMix drives a seeded mix of PutMasked (v = 1 and v = 0), Take,
// RemoveMasked and Drain against a map model, calling check after every
// step. The capacity is not a power of two, and the address space is
// wider than it so inserts also meet a full stash.
func runPoolMix(t *testing.T, blockSize int, check func(s *CT, model map[int64][]byte, step int)) {
	t.Helper()
	const capacity, steps = 23, 3000
	rng := rand.New(rand.NewSource(int64(blockSize)))
	s := NewConstantTime(capacity, blockSize)
	model := map[int64][]byte{}
	for step := 0; step < steps; step++ {
		addr := int64(rng.Intn(3 * capacity))
		switch op := rng.Intn(20); {
		case op < 9:
			data := make([]byte, 1+rng.Intn(blockSize))
			rng.Read(data)
			_, present := model[addr]
			err := s.PutMasked(1, addr, addr+1000, data)
			if !present && len(model) == capacity {
				if err == nil {
					t.Fatalf("step %d: insert into a full stash succeeded", step)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: PutMasked(1, %d): %v", step, addr, err)
			}
			model[addr] = data
		case op < 12:
			if err := s.PutMasked(0, addr, addr+1000, poolPayload(addr, blockSize)); err != nil {
				t.Fatalf("step %d: masked-off PutMasked: %v", step, err)
			}
		case op < 16:
			got, ok := s.Take(addr)
			want, present := model[addr]
			if ok != present || (ok && !bytes.Equal(got, want)) {
				t.Fatalf("step %d: Take(%d) = %x, %v; model %x, %v", step, addr, got, ok, want, present)
			}
			delete(model, addr)
		case op < 19:
			addrs := s.SnapshotAddrs(nil)
			mask := make([]int, capacity)
			for i := range mask {
				if rng.Intn(3) == 0 {
					mask[i] = 1
					delete(model, addrs[i])
				}
			}
			s.RemoveMasked(mask)
		default:
			for _, b := range s.Drain() {
				if !bytes.Equal(b.Data, model[b.Addr]) {
					t.Fatalf("step %d: Drain returned addr %d %x, model %x", step, b.Addr, b.Data, model[b.Addr])
				}
				delete(model, b.Addr)
			}
			if len(model) != 0 {
				t.Fatalf("step %d: Drain missed %d blocks", step, len(model))
			}
		}
		check(s, model, step)
	}
}

// TestCTPoolSlotsStayPermutation: after every step of the mix the
// pool-slot column is a permutation of 0..capacity−1.
func TestCTPoolSlotsStayPermutation(t *testing.T) {
	runPoolMix(t, 8, func(s *CT, _ map[int64][]byte, step int) {
		checkPermutation(t, s, fmt.Sprintf("step %d", step))
	})
}

// TestCTPoolPayloadsSurviveMix: after every step of the mix each
// resident entry's pool slot holds its address's payload, zero-padded,
// at 64 B and 1 KiB blocks; every tenth step each address also reads
// back through Get.
func TestCTPoolPayloadsSurviveMix(t *testing.T) {
	for _, blockSize := range []int{64, 1024} {
		t.Run(fmt.Sprintf("blockSize=%d", blockSize), func(t *testing.T) {
			runPoolMix(t, blockSize, func(s *CT, model map[int64][]byte, step int) {
				if s.Len() != len(model) {
					t.Fatalf("step %d: Len %d, model holds %d", step, s.Len(), len(model))
				}
				for i := 0; i < s.Len(); i++ {
					want := model[s.addrs[i]]
					slot := s.slot(s.phys[i])
					if s.lens[i] != len(want) || !bytes.Equal(slot[:len(want)], want) || slices.ContainsFunc(slot[len(want):], func(b byte) bool { return b != 0 }) {
						t.Fatalf("step %d: addr %d pool slot %d holds %x (len %d), want %x", step, s.addrs[i], s.phys[i], slot, s.lens[i], want)
					}
				}
				if step%10 != 0 {
					return
				}
				for addr, want := range model {
					if got, ok := s.Get(addr); !ok || !bytes.Equal(got, want) {
						t.Fatalf("step %d: Get(%d) = %x, %v; want %x", step, addr, got, ok, want)
					}
				}
			})
		})
	}
}
