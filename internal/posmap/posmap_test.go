package posmap

import (
	"testing"
	"testing/quick"

	"repro/internal/blockcipher"
)

func newPM(t *testing.T, blocks, leaves int64) *PositionMap {
	t.Helper()
	m, err := NewPositionMap(blocks, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewPositionMapValidation(t *testing.T) {
	for _, c := range []struct{ blocks, leaves int64 }{{0, 4}, {-1, 4}, {4, 0}, {4, -3}} {
		if _, err := NewPositionMap(c.blocks, c.leaves); err == nil {
			t.Errorf("NewPositionMap(%d, %d) accepted", c.blocks, c.leaves)
		}
	}
	m, err := NewPositionMap(1, 1)
	if err != nil {
		t.Fatalf("NewPositionMap(1, 1): %v", err)
	}
	if m.Size() != 1 || m.Leaves() != 1 {
		t.Fatalf("Size/Leaves = %d/%d, want 1/1", m.Size(), m.Leaves())
	}
}

func TestPositionMapStartsUnmapped(t *testing.T) {
	m := newPM(t, 8, 4)
	for a := int64(0); a < 8; a++ {
		leaf, err := m.Get(a)
		if err != nil {
			t.Fatal(err)
		}
		if leaf != NoLeaf {
			t.Fatalf("Get(%d) = %d, want NoLeaf", a, leaf)
		}
	}
	if m.Size() != 8 || m.Leaves() != 4 {
		t.Fatalf("Size/Leaves = %d/%d", m.Size(), m.Leaves())
	}
}

func TestPositionMapSetGet(t *testing.T) {
	m := newPM(t, 8, 4)
	if err := m.Set(3, 2); err != nil {
		t.Fatal(err)
	}
	leaf, _ := m.Get(3)
	if leaf != 2 {
		t.Fatalf("Get(3) = %d, want 2", leaf)
	}
	if err := m.Set(3, NoLeaf); err != nil {
		t.Fatalf("Set(NoLeaf): %v", err)
	}
	if leaf, _ := m.Get(3); leaf != NoLeaf {
		t.Fatalf("Get(3) = %d after unmapping", leaf)
	}
}

func TestPositionMapBounds(t *testing.T) {
	m := newPM(t, 8, 4)
	if _, err := m.Get(-1); err == nil {
		t.Error("Get(-1) passed")
	}
	if _, err := m.Get(8); err == nil {
		t.Error("Get(8) passed")
	}
	if err := m.Set(0, 4); err == nil {
		t.Error("Set(leaf=4) passed with 4 leaves")
	}
	if err := m.Set(0, -2); err == nil {
		t.Error("Set(leaf=-2) passed")
	}
	if err := m.Set(99, 0); err == nil {
		t.Error("Set(99) passed")
	}
}

// TestRemapInRangeAndRecorded: the map records the leaf each Set hands
// it — the tree's remap result — and refuses one outside the tree,
// leaving the entry as it was, in both lookup disciplines.
func TestRemapInRangeAndRecorded(t *testing.T) {
	for _, ct := range []bool{false, true} {
		m := newPM(t, 16, 8)
		m.SetConstantTime(ct)
		rng := blockcipher.NewRNGFromString("pm-set")
		for i := 0; i < 200; i++ {
			addr := int64(i % 16)
			leaf := rng.Int63n(8)
			if err := m.Set(addr, leaf); err != nil {
				t.Fatal(err)
			}
			if err := m.Set(addr, 8+leaf); err == nil {
				t.Fatalf("ct=%v: Set(%d, %d) accepted with 8 leaves", ct, addr, 8+leaf)
			}
			if got, _ := m.Get(addr); got != leaf {
				t.Fatalf("ct=%v: Get(%d) = %d after Set %d", ct, addr, got, leaf)
			}
		}
	}
}

// TestRemapUniform: every leaf of the tree round-trips through every
// address, so the map stores whatever the tree draws unchanged. (The
// uniformity of the draw itself is pathoram:TestTreeLeafDrawUniform.)
func TestRemapUniform(t *testing.T) {
	for _, ct := range []bool{false, true} {
		m := newPM(t, 4, 8)
		m.SetConstantTime(ct)
		for leaf := int64(0); leaf < 8; leaf++ {
			for addr := int64(0); addr < 4; addr++ {
				if err := m.Set(addr, (leaf+addr)%8); err != nil {
					t.Fatal(err)
				}
			}
			for addr := int64(0); addr < 4; addr++ {
				if got, _ := m.Get(addr); got != (leaf+addr)%8 {
					t.Fatalf("ct=%v: Get(%d) = %d, want %d", ct, addr, got, (leaf+addr)%8)
				}
			}
		}
	}
}

// TestRemapAllAndClear: a fully mapped map exports every leaf, imports
// into a fresh map unchanged, and Clear unmaps every address.
func TestRemapAllAndClear(t *testing.T) {
	m := newPM(t, 32, 16)
	for a := int64(0); a < 32; a++ {
		if err := m.Set(a, a%16); err != nil {
			t.Fatal(err)
		}
	}
	r := newPM(t, 32, 16)
	if err := r.Import(m.Export()); err != nil {
		t.Fatal(err)
	}
	for a := int64(0); a < 32; a++ {
		if leaf, _ := r.Get(a); leaf != a%16 {
			t.Fatalf("imported Get(%d) = %d, want %d", a, leaf, a%16)
		}
	}
	m.Clear()
	for a := int64(0); a < 32; a++ {
		if leaf, _ := m.Get(a); leaf != NoLeaf {
			t.Fatalf("address %d mapped after Clear", a)
		}
	}
}

func TestTierString(t *testing.T) {
	if TierStorage.String() != "storage" || TierMemory.String() != "memory" || TierPool.String() != "pool" {
		t.Fatal("Tier.String() wrong")
	}
}

func TestNewPermutationListValidation(t *testing.T) {
	if _, err := NewPermutationList(0); err == nil {
		t.Error("accepted zero blocks")
	}
	if _, err := NewPermutationList(-1); err == nil {
		t.Error("accepted negative blocks")
	}
}

func TestPermutationListDefaults(t *testing.T) {
	l, err := NewPermutationList(4)
	if err != nil {
		t.Fatal(err)
	}
	for a := int64(0); a < 4; a++ {
		e, err := l.Lookup(a)
		if err != nil {
			t.Fatal(err)
		}
		if e.Tier != TierStorage || e.Slot != a || e.Touched {
			t.Fatalf("Lookup(%d) = %+v, want identity storage entry", a, e)
		}
	}
	if l.Size() != 4 {
		t.Fatalf("Size() = %d", l.Size())
	}
}

func TestInitRandomIsPermutation(t *testing.T) {
	l, _ := NewPermutationList(64)
	rng := blockcipher.NewRNGFromString("initrand")
	perm := l.InitRandom(rng)
	seen := make([]bool, 64)
	for _, s := range perm {
		if s < 0 || s >= 64 || seen[s] {
			t.Fatalf("InitRandom produced invalid permutation: %v", perm)
		}
		seen[s] = true
	}
	if err := l.ValidateStoragePermutation(); err != nil {
		t.Fatal(err)
	}
}

func TestSetMemoryAndStorage(t *testing.T) {
	l, _ := NewPermutationList(4)
	if err := l.SetMemory(2, 7); err != nil {
		t.Fatal(err)
	}
	e, _ := l.Lookup(2)
	if e.Tier != TierMemory || e.Slot != 7 {
		t.Fatalf("Lookup(2) = %+v, want memory at leaf 7", e)
	}
	if leaf, _ := l.Leaf(2); leaf != 7 {
		t.Fatalf("Leaf(2) = %d, want 7", leaf)
	}
	if leaf, _ := l.Leaf(1); leaf != NoLeaf {
		t.Fatalf("Leaf(1) of a storage block = %d, want NoLeaf", leaf)
	}
	if err := l.SetMemory(1, NoLeaf); err == nil {
		t.Fatal("SetMemory with NoLeaf passed")
	}
	if l.InMemoryCount() != 1 {
		t.Fatalf("InMemoryCount() = %d, want 1", l.InMemoryCount())
	}
	if err := l.SetPool(2, 5); err != nil {
		t.Fatal(err)
	}
	e, _ = l.Lookup(2)
	if e.Tier != TierPool || e.Slot != 5 {
		t.Fatalf("Lookup(2) = %+v after SetPool(2, 5)", e)
	}
	if leaf, _ := l.Leaf(2); leaf != NoLeaf {
		t.Fatalf("Leaf(2) of a pool block = %d, want NoLeaf", leaf)
	}
	if err := l.MarkTouched(2); err == nil {
		t.Fatal("MarkTouched on a pool block passed")
	}
	if err := l.SetStorage(2, 9); err != nil {
		t.Fatal(err)
	}
	e, _ = l.Lookup(2)
	if e.Tier != TierStorage || e.Slot != 9 || e.Touched {
		t.Fatalf("Lookup(2) = %+v after SetStorage", e)
	}
	addrs := l.StorageAddrs()
	if len(addrs) != 4 {
		t.Fatalf("StorageAddrs() = %v", addrs)
	}
}

func TestMarkTouchedEnforcesSquareRootInvariant(t *testing.T) {
	l, _ := NewPermutationList(4)
	if err := l.MarkTouched(1); err != nil {
		t.Fatal(err)
	}
	if err := l.MarkTouched(1); err == nil {
		t.Fatal("second MarkTouched(1) in one period passed; invariant not enforced")
	}
	l.ResetPeriod()
	if err := l.MarkTouched(1); err != nil {
		t.Fatalf("MarkTouched after ResetPeriod: %v", err)
	}
	l.SetMemory(3, 0)
	if err := l.MarkTouched(3); err == nil {
		t.Fatal("MarkTouched on memory-resident block passed")
	}
}

func TestPermutationListBounds(t *testing.T) {
	l, _ := NewPermutationList(4)
	if _, err := l.Lookup(-1); err == nil {
		t.Error("Lookup(-1) passed")
	}
	if err := l.SetMemory(4, 0); err == nil {
		t.Error("SetMemory(4) passed")
	}
	if _, err := l.Leaf(-1); err == nil {
		t.Error("Leaf(-1) passed")
	}
	if err := l.SetStorage(5, 0); err == nil {
		t.Error("SetStorage(5) passed")
	}
	if err := l.SetPool(4, 0); err == nil {
		t.Error("SetPool(4) passed")
	}
	if err := l.MarkTouched(-2); err == nil {
		t.Error("MarkTouched(-2) passed")
	}
}

func TestValidateStoragePermutationDetectsCollision(t *testing.T) {
	l, _ := NewPermutationList(4)
	l.SetStorage(0, 1)
	l.SetStorage(1, 1) // collision
	if err := l.ValidateStoragePermutation(); err == nil {
		t.Fatal("duplicate slot not detected")
	}
}

func TestInitRandomClearsState(t *testing.T) {
	l, _ := NewPermutationList(16)
	rng := blockcipher.NewRNGFromString("clear")
	l.SetMemory(3, 0)
	l.MarkTouched(5)
	l.InitRandom(rng)
	if l.InMemoryCount() != 0 {
		t.Fatal("InitRandom left blocks in memory")
	}
	e, _ := l.Lookup(5)
	if e.Touched {
		t.Fatal("InitRandom left touched bits set")
	}
}

func TestPermutationListProperty(t *testing.T) {
	// Property: after any sequence of SetMemory/SetStorage with
	// distinct slots, ValidateStoragePermutation holds.
	f := func(ops []uint16) bool {
		l, _ := NewPermutationList(32)
		nextSlot := int64(100)
		for _, op := range ops {
			addr := int64(op % 32)
			if op%2 == 0 {
				l.SetMemory(addr, int64(op))
			} else {
				l.SetStorage(addr, nextSlot)
				nextSlot++
			}
		}
		return l.ValidateStoragePermutation() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPermutationListLeafDisciplines: the masked passes Leaf and
// SetMemory run under SetConstantTime give the indexed results — the
// same leaf for every probed address, whatever its tier, and the same
// entries after a seeded stream of placements.
func TestPermutationListLeafDisciplines(t *testing.T) {
	idx, _ := NewPermutationList(24)
	ct, _ := NewPermutationList(24)
	ct.SetConstantTime(true)
	rng := blockcipher.NewRNGFromString("list-ct")
	for i := 0; i < 500; i++ {
		addr, v := rng.Int63n(24), rng.Int63n(64)
		for _, l := range []*PermutationList{idx, ct} {
			switch i % 4 {
			case 0, 1:
				if err := l.SetMemory(addr, v); err != nil {
					t.Fatal(err)
				}
			case 2:
				l.SetPool(addr, int(v))
			case 3:
				l.SetStorage(addr, v)
			}
		}
		probe := rng.Int63n(24)
		want, _ := idx.Leaf(probe)
		if got, _ := ct.Leaf(probe); got != want {
			t.Fatalf("op %d: constant-time Leaf(%d) = %d, indexed %d", i, probe, got, want)
		}
	}
	a, b := idx.Export(), ct.Export()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("address %d: indexed entry %+v, constant-time %+v", i, a[i], b[i])
		}
	}
}
