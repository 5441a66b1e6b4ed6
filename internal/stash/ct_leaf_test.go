package stash

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// The constant-time stash carries a leaf beside every address. These
// tests pin that the leaf column moves with its address through every
// masked shift, and that unoccupied slots carry NoLeaf.

// leafEntry is the model's view of one stored block.
type leafEntry struct {
	leaf int64
	data []byte
}

// checkLeafModel compares s against the model: occupancy, the sorted
// address prefix, each address's leaf at the same snapshot index, each
// payload, and Empty/NoLeaf in every unoccupied slot.
func checkLeafModel(t *testing.T, s *CT, model map[int64]leafEntry, step int) {
	t.Helper()
	addrs := s.SnapshotAddrs(nil)
	leaves := s.SnapshotLeaves(nil)
	if len(addrs) != s.Capacity() || len(leaves) != s.Capacity() {
		t.Fatalf("step %d: snapshots of %d addrs and %d leaves, capacity %d", step, len(addrs), len(leaves), s.Capacity())
	}
	if s.Len() != len(model) {
		t.Fatalf("step %d: Len %d, model holds %d", step, s.Len(), len(model))
	}
	for i := range addrs {
		if i >= s.Len() {
			if addrs[i] != Empty || leaves[i] != NoLeaf {
				t.Fatalf("step %d: unoccupied slot %d holds addr %d leaf %d, want Empty and NoLeaf", step, i, addrs[i], leaves[i])
			}
			continue
		}
		if i > 0 && addrs[i-1] >= addrs[i] {
			t.Fatalf("step %d: addrs not strictly ascending at %d: %v", step, i, addrs[:s.Len()])
		}
		e, ok := model[addrs[i]]
		if !ok {
			t.Fatalf("step %d: slot %d holds addr %d, which the model does not", step, i, addrs[i])
		}
		if leaves[i] != e.leaf {
			t.Fatalf("step %d: slot %d addr %d carries leaf %d, want %d", step, i, addrs[i], leaves[i], e.leaf)
		}
		got, _ := s.Get(addrs[i])
		if !bytes.Equal(got, e.data) {
			t.Fatalf("step %d: addr %d payload %x, want %x", step, addrs[i], got, e.data)
		}
	}
}

// TestCTLeafColumnFollowsAddress drives a seeded random mix of Put,
// PutMasked (v = 1 and v = 0), Take, RemoveMasked and Drain against a
// map model of addr → (leaf, data), checking the whole stash after
// every step.
func TestCTLeafColumnFollowsAddress(t *testing.T) {
	const capacity, blockSize = 12, 8
	rng := rand.New(rand.NewSource(20261017))
	s := NewConstantTime(capacity, blockSize)
	model := make(map[int64]leafEntry)
	randData := func() []byte {
		d := make([]byte, 1+rng.Intn(blockSize))
		rng.Read(d)
		return d
	}
	checkLeafModel(t, s, model, -1)
	for step := 0; step < 4000; step++ {
		addr := int64(rng.Intn(40))
		switch op := rng.Intn(20); {
		case op < 3: // Put: the block carries no leaf
			data := randData()
			err := s.Put(addr, data)
			if _, present := model[addr]; !present && len(model) == capacity {
				if !errors.As(err, new(ErrFull)) {
					t.Fatalf("step %d: Put into a full stash: err %v, want ErrFull", step, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: Put(%d): %v", step, addr, err)
			}
			model[addr] = leafEntry{leaf: NoLeaf, data: data}
		case op < 10: // PutMasked v = 1 with a leaf
			leaf, data := rng.Int63n(1<<20), randData()
			err := s.PutMasked(1, addr, leaf, data)
			if _, present := model[addr]; !present && len(model) == capacity {
				if !errors.As(err, new(ErrFull)) {
					t.Fatalf("step %d: PutMasked into a full stash: err %v, want ErrFull", step, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: PutMasked(1, %d, %d): %v", step, addr, leaf, err)
			}
			model[addr] = leafEntry{leaf: leaf, data: data}
		case op < 13: // PutMasked v = 0 changes nothing, leaves included
			before := s.SnapshotLeaves(nil)
			if err := s.PutMasked(0, addr, rng.Int63n(1<<20), randData()); err != nil {
				t.Fatalf("step %d: masked-off PutMasked: %v", step, err)
			}
			after := s.SnapshotLeaves(nil)
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("step %d: masked-off PutMasked changed leaf %d: %d → %d", step, i, before[i], after[i])
				}
			}
		case op < 16: // Take
			e, present := model[addr]
			got, ok := s.Take(addr)
			if ok != present {
				t.Fatalf("step %d: Take(%d) found=%v, model %v", step, addr, ok, present)
			}
			if ok && !bytes.Equal(got, e.data) {
				t.Fatalf("step %d: Take(%d) = %x, want %x", step, addr, got, e.data)
			}
			delete(model, addr)
		case op < 19: // RemoveMasked a random subset of the occupied slots
			addrs := s.SnapshotAddrs(nil)
			mask := make([]int, capacity)
			for i := 0; i < s.Len(); i++ {
				if rng.Intn(3) == 0 {
					mask[i] = 1
					delete(model, addrs[i])
				}
			}
			s.RemoveMasked(mask)
		default: // Drain
			drained := s.Drain()
			if len(drained) != len(model) {
				t.Fatalf("step %d: Drain returned %d blocks, model holds %d", step, len(drained), len(model))
			}
			for _, b := range drained {
				if e, ok := model[b.Addr]; !ok || !bytes.Equal(b.Data, e.data) {
					t.Fatalf("step %d: Drain returned addr %d %x, model %v", step, b.Addr, b.Data, e)
				}
			}
			clear(model)
		}
		checkLeafModel(t, s, model, step)
	}
}
