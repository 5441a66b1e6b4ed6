package ctops

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// b2i turns the branching definition's verdict into the 0/1 mask the
// primitives must produce.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

const edge = 1<<62 - 1 // the documented comparison domain is (-2^62, 2^62)

// inDomain folds an arbitrary int64 into the comparison domain.
func inDomain(x int64) int64 { return x >> 2 }

func TestCompareTable(t *testing.T) {
	vals := []int64{-edge, -edge + 1, math.MinInt32, -2, -1, 0, 1, 2, 63, 64, math.MaxInt32, edge - 1, edge}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := Eq64(a, b), b2i(a == b); got != want {
				t.Errorf("Eq64(%d, %d) = %d, want %d", a, b, got, want)
			}
			if got, want := Lt64(a, b), b2i(a < b); got != want {
				t.Errorf("Lt64(%d, %d) = %d, want %d", a, b, got, want)
			}
			ai, bi := int(a), int(b)
			if got, want := EqInt(ai, bi), b2i(ai == bi); got != want {
				t.Errorf("EqInt(%d, %d) = %d, want %d", ai, bi, got, want)
			}
			if got, want := LtInt(ai, bi), b2i(ai < bi); got != want {
				t.Errorf("LtInt(%d, %d) = %d, want %d", ai, bi, got, want)
			}
			if got, want := GeInt(ai, bi), b2i(ai >= bi); got != want {
				t.Errorf("GeInt(%d, %d) = %d, want %d", ai, bi, got, want)
			}
		}
	}
}

// Eq64 is a XOR, not a subtraction: it holds on the whole int64 range.
func TestEq64FullRange(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := Eq64(a, b), b2i(a == b); got != want {
				t.Errorf("Eq64(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// The constant-time stash's empty sentinel: one operand of Lt64 may be
// math.MaxInt64 when the other is non-negative.
func TestLt64EmptySentinel(t *testing.T) {
	for _, x := range []int64{0, 1, 4096, math.MaxInt32, edge, math.MaxInt64 - 1, math.MaxInt64} {
		if got, want := Lt64(x, math.MaxInt64), b2i(x < math.MaxInt64); got != want {
			t.Errorf("Lt64(%d, MaxInt64) = %d, want %d", x, got, want)
		}
		if got := Lt64(math.MaxInt64, x); got != 0 {
			t.Errorf("Lt64(MaxInt64, %d) = %d, want 0", x, got)
		}
	}
}

func TestSelectTable(t *testing.T) {
	vals := []int64{math.MinInt64, -edge, -1, 0, 1, edge, math.MaxInt64}
	for _, a := range vals {
		for _, b := range vals {
			if got := Select64(1, a, b); got != a {
				t.Errorf("Select64(1, %d, %d) = %d", a, b, got)
			}
			if got := Select64(0, a, b); got != b {
				t.Errorf("Select64(0, %d, %d) = %d", a, b, got)
			}
			if got := SelectInt(1, int(a), int(b)); got != int(a) {
				t.Errorf("SelectInt(1, %d, %d) = %d", a, b, got)
			}
			if got := SelectInt(0, int(a), int(b)); got != int(b) {
				t.Errorf("SelectInt(0, %d, %d) = %d", a, b, got)
			}
		}
	}
}

func TestAgainstBranchingDefinitions(t *testing.T) {
	check := func(name string, f any) {
		t.Helper()
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("Eq64", func(a, b int64) bool {
		return Eq64(a, b) == b2i(a == b) && Eq64(a, a) == 1
	})
	check("EqInt", func(a, b int) bool {
		return EqInt(a, b) == b2i(a == b) && EqInt(b, b) == 1
	})
	check("Lt64", func(x, y int64) bool {
		a, b := inDomain(x), inDomain(y)
		return Lt64(a, b) == b2i(a < b) && Lt64(b, a) == b2i(b < a) && Lt64(a, a) == 0
	})
	check("LtInt/GeInt", func(x, y int64) bool {
		a, b := int(inDomain(x)), int(inDomain(y))
		return LtInt(a, b) == b2i(a < b) && GeInt(a, b) == b2i(a >= b) && GeInt(a, a) == 1
	})
	check("Select64", func(a, b int64) bool {
		return Select64(1, a, b) == a && Select64(0, a, b) == b
	})
	check("SelectInt", func(a, b int) bool {
		return SelectInt(1, a, b) == a && SelectInt(0, a, b) == b
	})
}

func TestCopyBytes(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5}
	dst := []byte{9, 8, 7, 6, 5}
	kept := bytes.Clone(dst)

	CopyBytes(0, dst, src)
	if !bytes.Equal(dst, kept) {
		t.Fatalf("CopyBytes(0) changed dst to %v", dst)
	}
	CopyBytes(1, dst, src)
	if !bytes.Equal(dst, src) {
		t.Fatalf("CopyBytes(1) left dst = %v, want %v", dst, src)
	}
	if !bytes.Equal(src, []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("CopyBytes wrote to src: %v", src)
	}
	CopyBytes(1, nil, nil) // empty slices are a no-op, not a panic
}
