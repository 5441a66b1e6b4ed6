// Package ctops collects the branchless select/compare primitives the
// constant-time controller mode is built from. Everything here is
// allocation-free and in the crypto/subtle idiom: masks are ints that
// are exactly 0 or 1, selections are arithmetic, and no operation
// branches on its data operands.
//
// Domain note: the signed comparisons are implemented with a
// subtraction, so both operands must stay within (-2^62, 2^62) — far
// beyond any block address, slot index or level this repository uses —
// except that one operand of Lt64 may be math.MaxInt64 (the
// constant-time stash's empty sentinel) as long as the other is
// non-negative.
package ctops

import "encoding/binary"

// Eq64 returns 1 when a == b, else 0, without branching.
func Eq64(a, b int64) int {
	x := uint64(a ^ b)
	return int(((x | -x) >> 63) ^ 1)
}

// EqInt returns 1 when a == b, else 0, without branching.
func EqInt(a, b int) int { return Eq64(int64(a), int64(b)) }

// Lt64 returns 1 when a < b, else 0, without branching. See the
// package comment for the operand domain.
func Lt64(a, b int64) int {
	return int(uint64(a-b) >> 63)
}

// LtInt returns 1 when a < b, else 0, without branching.
func LtInt(a, b int) int { return Lt64(int64(a), int64(b)) }

// GeInt returns 1 when a >= b, else 0, without branching.
func GeInt(a, b int) int { return LtInt(a, b) ^ 1 }

// Select64 returns a when v == 1 and b when v == 0, without branching.
func Select64(v int, a, b int64) int64 {
	m := -int64(v)
	return (a & m) | (b &^ m)
}

// SelectInt returns a when v == 1 and b when v == 0, without branching.
func SelectInt(v int, a, b int) int { return int(Select64(v, int64(a), int64(b))) }

// CopyBytes copies src into dst when v == 1 and leaves dst unchanged
// when v == 0, reading both slices in full and rewriting dst in full
// either way. The slices must have equal length (it panics otherwise,
// like subtle.ConstantTimeCopy) and must not partially overlap.
//
// It moves eight bytes per step: every word of dst becomes
// d ^ ((d ^ s) & m) with m all ones or all zeros, and the tail shorter
// than a word runs the same select a byte at a time. The constant-time
// stash and the KV layer route every masked data movement through here,
// which is why it is word-wide rather than crypto/subtle's byte loop.
//
//horam:constant-time
//horam:secret v dst src
func CopyBytes(v int, dst, src []byte) {
	if len(dst) != len(src) {
		panic("ctops: CopyBytes slices have different lengths")
	}
	m := -uint64(v)
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
		x := binary.LittleEndian.Uint64(d)
		binary.LittleEndian.PutUint64(d, x^((x^binary.LittleEndian.Uint64(s))&m))
	}
	mb := byte(m)
	for ; i < len(dst); i++ {
		dst[i] ^= (dst[i] ^ src[i]) & mb
	}
}

// Equal returns 1 when a and b hold the same bytes, else 0, in time
// that depends only on their lengths; like subtle.ConstantTimeCompare
// it returns 0 at once for slices of different lengths (lengths are
// public) and 1 for two empty ones.
//
// It folds eight bytes per step, OR-ing the XOR of each word pair into
// one accumulator, and the tail shorter than a word a byte at a time.
// The KV selector compares a ≈1 KiB key window per candidate slot, which
// is why it is word-wide rather than crypto/subtle's byte loop.
//
//horam:constant-time
//horam:secret a b
func Equal(a, b []byte) int {
	if len(a) != len(b) {
		return 0
	}
	var acc uint64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		acc |= binary.LittleEndian.Uint64(a[i:i+8:i+8]) ^ binary.LittleEndian.Uint64(b[i:i+8:i+8])
	}
	for ; i < len(a); i++ {
		acc |= uint64(a[i] ^ b[i])
	}
	return int(((acc | -acc) >> 63) ^ 1)
}
