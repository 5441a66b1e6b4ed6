package ctops

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"testing"
)

// Equal against crypto/subtle at every length from 0 to 1100, word
// multiples and tails alike: equal slices, one bit flipped in the
// head, the middle and the tail (each bit position of that byte), and
// a length mismatch.
func TestEqualMatchesSubtle(t *testing.T) {
	check := func(a, b []byte, what string) {
		t.Helper()
		if got, want := Equal(a, b), subtle.ConstantTimeCompare(a, b); got != want {
			t.Fatalf("len %d/%d %s: Equal = %d, subtle = %d", len(a), len(b), what, got, want)
		}
	}
	for n := 0; n <= 1100; n++ {
		a := make([]byte, n)
		fill(a, byte(n))
		b := bytes.Clone(a)
		check(a, b, "equal")
		if n > 0 {
			check(a, b[:n-1], "b one byte short")
			check(a[:n-1], b, "a one byte short")
		}
		for _, at := range []int{0, n / 2, n - 1} {
			if at < 0 || at >= n {
				continue
			}
			for bit := 0; bit < 8; bit++ {
				b[at] ^= 1 << bit
				check(a, b, fmt.Sprintf("bit %d of byte %d flipped", bit, at))
				b[at] ^= 1 << bit
			}
		}
	}
	check(nil, []byte{}, "nil vs empty")
}

// Equal reads at any sub-slice alignment.
func TestEqualUnaligned(t *testing.T) {
	for off := 0; off < 8; off++ {
		for n := 0; n <= 33; n++ {
			a := make([]byte, off+n)
			fill(a, 0x5A)
			b := append(make([]byte, 3), a[off:]...)
			if Equal(a[off:], b[3:]) != 1 {
				t.Fatalf("off=%d n=%d: equal slices compare unequal", off, n)
			}
			if n > 0 {
				b[3+n-1] ^= 0x80
				if Equal(a[off:], b[3:]) != 0 {
					t.Fatalf("off=%d n=%d: a last-byte flip compares equal", off, n)
				}
			}
		}
	}
}

// One sub-benchmark per compare: the KV selector's key window at
// kv_mixed's geometry (1017 B) and a 64 B one, each beside
// crypto/subtle.
func BenchmarkEqual(b *testing.B) {
	for _, n := range []int{64, 1017} {
		x := make([]byte, n)
		fill(x, 0x3C)
		y := bytes.Clone(x)
		for _, c := range []struct {
			name string
			eq   func(a, b []byte) int
		}{{"ctops", Equal}, {"subtle", subtle.ConstantTimeCompare}} {
			b.Run(fmt.Sprintf("%s/%dB", c.name, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					if c.eq(x, y) != 1 {
						b.Fatal("equal windows compare unequal")
					}
				}
			})
		}
	}
}
