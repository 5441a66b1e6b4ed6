package ctops

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

// copyDef is CopyBytes' byte-at-a-time definition.
func copyDef(v int, dst, src []byte) {
	if v == 1 {
		copy(dst, src)
	}
}

// fill writes a pattern derived from seed, so dst and src never agree
// by accident.
func fill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i)*37
	}
}

// Every length across the word boundary and its tail, every sub-slice
// misalignment of both operands, both masks.
func TestCopyBytesMatchesByteDefinition(t *testing.T) {
	for n := 0; n <= 33; n++ {
		for dOff := 0; dOff < 8; dOff++ {
			for sOff := 0; sOff < 8; sOff++ {
				for v := 0; v <= 1; v++ {
					dstBuf := make([]byte, dOff+n+8)
					srcBuf := make([]byte, sOff+n+8)
					fill(dstBuf, 0xA5)
					fill(srcBuf, 0x3C)
					want := bytes.Clone(dstBuf)
					srcKept := bytes.Clone(srcBuf)

					CopyBytes(v, dstBuf[dOff:dOff+n], srcBuf[sOff:sOff+n])
					copyDef(v, want[dOff:dOff+n], srcKept[sOff:sOff+n])
					if !bytes.Equal(dstBuf, want) {
						t.Fatalf("n=%d dOff=%d sOff=%d v=%d: dst = %x, want %x", n, dOff, sOff, v, dstBuf, want)
					}
					if !bytes.Equal(srcBuf, srcKept) {
						t.Fatalf("n=%d dOff=%d sOff=%d v=%d: src written", n, dOff, sOff, v)
					}
				}
			}
		}
	}
}

func TestCopyBytesQuick(t *testing.T) {
	f := func(dst, src []byte, sel bool) bool {
		n := min(len(dst), len(src))
		dst, src = dst[:n], src[:n]
		v := b2i(sel)
		want := bytes.Clone(dst)
		srcKept := bytes.Clone(src)
		copyDef(v, want, src)
		CopyBytes(v, dst, src)
		return bytes.Equal(dst, want) && bytes.Equal(src, srcKept)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCopyBytesLengthMismatchPanics(t *testing.T) {
	for _, lens := range [][2]int{{8, 9}, {9, 8}, {0, 1}, {64, 63}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CopyBytes with lengths %d and %d did not panic", lens[0], lens[1])
				}
			}()
			CopyBytes(1, make([]byte, lens[0]), make([]byte, lens[1]))
		}()
	}
}

// One sub-benchmark per payload size: a stash slot at the block_ct
// geometry (64 B) and at the paper's block size (1 KiB).
func BenchmarkCopyBytes(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			dst := make([]byte, n)
			src := make([]byte, n)
			fill(src, 0x3C)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				CopyBytes(i&1, dst, src)
			}
		})
	}
}
