package oramtree

import (
	"testing"
	"testing/quick"
)

func TestForCapacity(t *testing.T) {
	cases := []struct {
		blocks int64
		z      int
		levels int
	}{
		{1, 4, 0},    // one bucket of 4 slots holds 1
		{4, 4, 0},    // exactly one bucket
		{5, 4, 1},    // needs 3 buckets
		{12, 4, 1},   // 3 buckets * 4 = 12
		{13, 4, 2},   // needs 7 buckets
		{1000, 4, 8}, // 511 buckets * 4 = 2044 ≥ 1000; 255*4=1020 ≥ 1000 → level 7? see assert below
	}
	for _, tc := range cases {
		g, err := ForCapacity(tc.blocks, tc.z)
		if err != nil {
			t.Fatalf("ForCapacity(%d, %d): %v", tc.blocks, tc.z, err)
		}
		if g.Slots() < tc.blocks {
			t.Errorf("ForCapacity(%d, %d): %d slots < requested", tc.blocks, tc.z, g.Slots())
		}
		// Minimality: one level less must not suffice (when possible).
		if g.Levels > 0 {
			smaller := Geometry{Levels: g.Levels - 1, Z: tc.z}
			if smaller.Slots() >= tc.blocks {
				t.Errorf("ForCapacity(%d, %d) = %d levels, but %d levels suffice", tc.blocks, tc.z, g.Levels, smaller.Levels)
			}
		}
	}
}

func TestForCapacityRejectsBadInput(t *testing.T) {
	if _, err := ForCapacity(0, 4); err == nil {
		t.Error("accepted zero capacity")
	}
	if _, err := ForCapacity(-5, 4); err == nil {
		t.Error("accepted negative capacity")
	}
	if _, err := ForCapacity(10, 0); err == nil {
		t.Error("accepted zero bucket size")
	}
}

func TestValidate(t *testing.T) {
	if err := (Geometry{Levels: 3, Z: 4}).Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	if err := (Geometry{Levels: -1, Z: 4}).Validate(); err == nil {
		t.Error("negative levels accepted")
	}
	if err := (Geometry{Levels: 3, Z: 0}).Validate(); err == nil {
		t.Error("zero Z accepted")
	}
	if err := (Geometry{Levels: 63, Z: 1}).Validate(); err == nil {
		t.Error("oversized levels accepted")
	}
}

func TestCounts(t *testing.T) {
	g := Geometry{Levels: 3, Z: 4}
	if g.Leaves() != 8 {
		t.Errorf("Leaves() = %d, want 8", g.Leaves())
	}
	if g.Buckets() != 15 {
		t.Errorf("Buckets() = %d, want 15", g.Buckets())
	}
	if g.Slots() != 60 {
		t.Errorf("Slots() = %d, want 60", g.Slots())
	}
}

func TestPath(t *testing.T) {
	g := Geometry{Levels: 3, Z: 4}
	// Leaf 0: root(0) -> 1 -> 3 -> 7.
	want := []int64{0, 1, 3, 7}
	got := g.Path(0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Path(0) = %v, want %v", got, want)
		}
	}
	// Leaf 7 (rightmost): 0 -> 2 -> 6 -> 14.
	want = []int64{0, 2, 6, 14}
	got = g.Path(7)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Path(7) = %v, want %v", got, want)
		}
	}
	// Leaf 5: binary 101 -> 0, 2 (right), 5 (left), 12 (right).
	want = []int64{0, 2, 5, 12}
	got = g.Path(5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Path(5) = %v, want %v", got, want)
		}
	}
}

func TestPathChildRelation(t *testing.T) {
	g := Geometry{Levels: 6, Z: 4}
	for leaf := int64(0); leaf < g.Leaves(); leaf++ {
		p := g.Path(leaf)
		if p[0] != 0 {
			t.Fatalf("Path(%d) does not start at root", leaf)
		}
		for i := 1; i < len(p); i++ {
			parent := (p[i] - 1) / 2
			if parent != p[i-1] {
				t.Fatalf("Path(%d): bucket %d's parent is %d, path says %d", leaf, p[i], parent, p[i-1])
			}
		}
		if last := p[len(p)-1]; last != g.Leaves()-1+leaf {
			t.Fatalf("Path(%d) ends at %d, want %d", leaf, last, g.Leaves()-1+leaf)
		}
	}
}

func TestLevelOf(t *testing.T) {
	g := Geometry{Levels: 3, Z: 1}
	wants := map[int64]int{0: 0, 1: 1, 2: 1, 3: 2, 6: 2, 7: 3, 14: 3}
	for bucket, level := range wants {
		if got := g.LevelOf(bucket); got != level {
			t.Errorf("LevelOf(%d) = %d, want %d", bucket, got, level)
		}
	}
}

func TestLeafOfBucket(t *testing.T) {
	g := Geometry{Levels: 3, Z: 1}
	if got := g.LeafOfBucket(0); got != 0 {
		t.Errorf("LeafOfBucket(root) = %d, want 0", got)
	}
	if got := g.LeafOfBucket(2); got != 4 {
		t.Errorf("LeafOfBucket(2) = %d, want 4", got)
	}
	if got := g.LeafOfBucket(14); got != 7 {
		t.Errorf("LeafOfBucket(14) = %d, want 7", got)
	}
}

func TestCommonLevel(t *testing.T) {
	g := Geometry{Levels: 3, Z: 1}
	cases := []struct {
		a, b int64
		want int
	}{
		{0, 0, 3}, // same leaf: share whole path
		{0, 1, 2}, // differ in last bit
		{0, 2, 1},
		{0, 4, 0}, // opposite halves: only root
		{5, 7, 1},
		{6, 7, 2},
	}
	for _, tc := range cases {
		if got := g.CommonLevel(tc.a, tc.b); got != tc.want {
			t.Errorf("CommonLevel(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCommonLevelMatchesPathIntersection(t *testing.T) {
	g := Geometry{Levels: 5, Z: 1}
	f := func(aRaw, bRaw uint8) bool {
		a := int64(aRaw) % g.Leaves()
		b := int64(bRaw) % g.Leaves()
		pa, pb := g.Path(a), g.Path(b)
		deepest := 0
		for l := 0; l <= g.Levels; l++ {
			if pa[l] == pb[l] {
				deepest = l
			}
		}
		return g.CommonLevel(a, b) == deepest
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlotBase(t *testing.T) {
	g := Geometry{Levels: 2, Z: 4}
	if got := g.SlotBase(0); got != 0 {
		t.Errorf("SlotBase(0) = %d", got)
	}
	if got := g.SlotBase(3); got != 12 {
		t.Errorf("SlotBase(3) = %d, want 12", got)
	}
}

func TestTopSlots(t *testing.T) {
	g := Geometry{Levels: 4, Z: 4}
	for k := 0; k <= g.Levels+1; k++ {
		// The top k levels end where level k's first bucket begins.
		want := g.SlotBase(g.BucketAt(0, min(k, g.Levels)))
		if k == g.Levels+1 {
			want = g.Slots()
		}
		if got := g.TopSlots(k); got != want {
			t.Errorf("TopSlots(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestCheckLeafAndBucket(t *testing.T) {
	g := Geometry{Levels: 2, Z: 4} // 4 leaves, 7 buckets
	if err := g.CheckLeaf(3); err != nil {
		t.Errorf("CheckLeaf(3): %v", err)
	}
	if err := g.CheckLeaf(4); err == nil {
		t.Error("CheckLeaf(4) passed on 4-leaf tree")
	}
	if err := g.CheckLeaf(-1); err == nil {
		t.Error("CheckLeaf(-1) passed")
	}
	if err := g.CheckBucket(6); err != nil {
		t.Errorf("CheckBucket(6): %v", err)
	}
	if err := g.CheckBucket(7); err == nil {
		t.Error("CheckBucket(7) passed on 7-bucket tree")
	}
}

func TestBucketAtConsistentWithPath(t *testing.T) {
	g := Geometry{Levels: 7, Z: 2}
	for leaf := int64(0); leaf < g.Leaves(); leaf += 13 {
		p := g.Path(leaf)
		for l := 0; l <= g.Levels; l++ {
			if got := g.BucketAt(leaf, l); got != p[l] {
				t.Fatalf("BucketAt(%d,%d) = %d, Path says %d", leaf, l, got, p[l])
			}
		}
	}
}
