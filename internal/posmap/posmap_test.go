package posmap

import (
	"testing"
	"testing/quick"

	"repro/internal/blockcipher"
)

func newPM(t *testing.T, blocks, leaves int64) *PositionMap {
	t.Helper()
	m, err := NewPositionMap(blocks, leaves, blockcipher.NewRNGFromString("pm"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewPositionMapValidation(t *testing.T) {
	rng := blockcipher.NewRNGFromString("x")
	if _, err := NewPositionMap(0, 4, rng); err == nil {
		t.Error("accepted zero blocks")
	}
	if _, err := NewPositionMap(4, 0, rng); err == nil {
		t.Error("accepted zero leaves")
	}
	if _, err := NewPositionMap(4, 4, nil); err == nil {
		t.Error("accepted nil rng")
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
	if _, err := m.Remap(99); err == nil {
		t.Error("Remap(99) passed")
	}
}

func TestRemapInRangeAndRecorded(t *testing.T) {
	m := newPM(t, 16, 8)
	for i := 0; i < 200; i++ {
		addr := int64(i % 16)
		leaf, err := m.Remap(addr)
		if err != nil {
			t.Fatal(err)
		}
		if leaf < 0 || leaf >= 8 {
			t.Fatalf("Remap leaf %d out of range", leaf)
		}
		got, _ := m.Get(addr)
		if got != leaf {
			t.Fatalf("Get after Remap = %d, want %d", got, leaf)
		}
	}
}

func TestRemapUniform(t *testing.T) {
	m := newPM(t, 1, 8)
	const trials = 8000
	counts := make([]int, 8)
	for i := 0; i < trials; i++ {
		leaf, _ := m.Remap(0)
		counts[leaf]++
	}
	expected := float64(trials) / 8
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 24.32 { // 7 dof, 99.9%
		t.Fatalf("Remap distribution chi2 = %.2f, counts %v", chi2, counts)
	}
}

func TestRemapAllAndClear(t *testing.T) {
	m := newPM(t, 32, 16)
	m.RemapAll()
	for a := int64(0); a < 32; a++ {
		leaf, _ := m.Get(a)
		if leaf == NoLeaf {
			t.Fatalf("address %d unmapped after RemapAll", a)
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
	if err := l.SetMemory(2); err != nil {
		t.Fatal(err)
	}
	e, _ := l.Lookup(2)
	if e.Tier != TierMemory {
		t.Fatalf("Lookup(2).Tier = %v, want memory", e.Tier)
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
	l.SetMemory(3)
	if err := l.MarkTouched(3); err == nil {
		t.Fatal("MarkTouched on memory-resident block passed")
	}
}

func TestPermutationListBounds(t *testing.T) {
	l, _ := NewPermutationList(4)
	if _, err := l.Lookup(-1); err == nil {
		t.Error("Lookup(-1) passed")
	}
	if err := l.SetMemory(4); err == nil {
		t.Error("SetMemory(4) passed")
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
	l.SetMemory(3)
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
				l.SetMemory(addr)
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
