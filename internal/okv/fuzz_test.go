// Fuzz and corruption coverage for the slot-block codec: round-trips
// are exact, decode never panics on arbitrary bytes, anything decode
// accepts re-encodes to a block decode agrees with, structurally
// impossible inputs are refused with ErrCorruptSlot rather than
// guessed at, and the masked parse the selector runs (slotState)
// accepts exactly what decode accepts.
package okv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzLayout is a fixed geometry for codec tests: 64 B blocks, keys
// up to 57 B, values up to 128 B (2 extents).
func fuzzLayout() layout {
	return layout{
		buckets:   16,
		slots:     2,
		extents:   2,
		blockSize: 64,
		maxKey:    64 - slotHeaderLen,
		maxValue:  128,
	}
}

func FuzzSlotCodec(f *testing.F) {
	l := fuzzLayout()
	f.Add(make([]byte, 64))                                            // canonical empty slot
	f.Add(l.encodeSlot([]byte("alice"), 17))                           // ordinary record
	f.Add(l.encodeSlot(bytes.Repeat([]byte{1}, l.maxKey), l.maxValue)) // both caps
	f.Add([]byte{0x7f})                                                // short + bad flag
	f.Fuzz(func(t *testing.T, data []byte) {
		// The masked parse's domain is one block: fit the input to
		// the block size, then it must accept exactly what decodeSlot
		// accepts, with equal occupancy and lengths.
		blk := make([]byte, l.blockSize)
		copy(blk, data)
		ref, refErr := l.decodeSlot(blk)
		occ, ok := l.slotState(blk)
		if (ok == 1) != (refErr == nil) {
			t.Fatalf("slotState ok=%d, decodeSlot err=%v", ok, refErr)
		}
		if klen, vlen := slotLens(blk); ok == 1 && ((occ == 1) != ref.occupied || klen != len(ref.key) || vlen != ref.valLen) {
			t.Fatalf("slotState (occ %d, klen %d, vlen %d), decodeSlot %+v", occ, klen, vlen, ref)
		}

		e, err := l.decodeSlot(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSlot) {
				t.Fatalf("decode error %v is not ErrCorruptSlot", err)
			}
			return
		}
		// Accepted input: the decoded record must survive a canonical
		// re-encode/decode round-trip unchanged.
		var re []byte
		if e.occupied {
			re = l.encodeSlot(e.key, e.valLen)
		} else {
			re = make([]byte, l.blockSize)
		}
		e2, err := l.decodeSlot(re)
		if err != nil {
			t.Fatalf("re-encode of accepted input fails decode: %v", err)
		}
		if e2.occupied != e.occupied || e2.valLen != e.valLen || !bytes.Equal(e2.key, e.key) {
			t.Fatalf("round-trip drift: %+v -> %+v", e, e2)
		}
	})
}

// TestSlotCodecRoundTrip pins exact round-trips for the boundary
// shapes the fuzzer may not hit in a short run.
func TestSlotCodecRoundTrip(t *testing.T) {
	l := fuzzLayout()
	cases := []struct {
		key    []byte
		valLen int
	}{
		{[]byte("k"), 0},
		{[]byte("alice"), 17},
		{bytes.Repeat([]byte{0xfe}, l.maxKey), l.maxValue},
		{[]byte{0x00, 0x0a, 0xff}, 1}, // binary keys incl. NUL and newline
	}
	for _, c := range cases {
		e, err := l.decodeSlot(l.encodeSlot(c.key, c.valLen))
		if err != nil {
			t.Fatalf("decode(encode(%q, %d)): %v", c.key, c.valLen, err)
		}
		if !e.occupied || !bytes.Equal(e.key, c.key) || e.valLen != c.valLen {
			t.Fatalf("round-trip of (%q, %d) = %+v", c.key, c.valLen, e)
		}
	}
	if e, err := l.decodeSlot(make([]byte, l.blockSize)); err != nil || e.occupied {
		t.Fatalf("all-zeros block = (%+v, %v), want empty slot", e, err)
	}
}

// malformedSlots returns one block of each malformed form decode
// refuses, at layout l (which must fit the key "alice").
func malformedSlots(l layout) map[string][]byte {
	base := l.encodeSlot([]byte("alice"), 17)
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), base...)
		f(b)
		return b
	}
	return map[string][]byte{
		"wrong length":          base[:l.blockSize-1],
		"unknown flag":          mutate(func(b []byte) { b[0] = 0x7f }),
		"empty with key length": mutate(func(b []byte) { b[0] = slotEmpty }),
		"occupied zero key":     mutate(func(b []byte) { binary.BigEndian.PutUint16(b[1:3], 0) }),
		"key length over cap":   mutate(func(b []byte) { binary.BigEndian.PutUint16(b[1:3], uint16(l.maxKey+1)) }),
		"key length past block": mutate(func(b []byte) { binary.BigEndian.PutUint16(b[1:3], 60000) }),
		"value length over cap": mutate(func(b []byte) { binary.BigEndian.PutUint32(b[3:7], uint32(l.maxValue+1)) }),
		"empty with value length": mutate(func(b []byte) {
			b[0] = slotEmpty
			binary.BigEndian.PutUint16(b[1:3], 0)
			binary.BigEndian.PutUint32(b[3:7], 9)
		}),
	}
}

// TestSlotCodecRefusals pins the corruption classes decode must
// refuse, and the masked parse marks every full-size one invalid.
func TestSlotCodecRefusals(t *testing.T) {
	l := fuzzLayout()
	for name, blk := range malformedSlots(l) {
		if len(blk) == l.blockSize {
			if _, ok := l.slotState(blk); ok != 0 {
				t.Errorf("%s: slotState accepts it", name)
			}
		}
		if _, err := l.decodeSlot(blk); !errors.Is(err, ErrCorruptSlot) {
			t.Errorf("%s: got %v, want ErrCorruptSlot", name, err)
		}
	}
}

// TestValueCodecRoundTrip: values of every length up to the cap
// (including 0 and non-block-aligned lengths) split into the fixed
// extent run and reassemble exactly.
func TestValueCodecRoundTrip(t *testing.T) {
	l := fuzzLayout()
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128} {
		v := bytes.Repeat([]byte{byte(n)}, n)
		ext := l.encodeValue(v)
		if len(ext) != l.extents {
			t.Fatalf("len %d: %d extent blocks, want %d (extent count must not depend on value length)", n, len(ext), l.extents)
		}
		for j, blk := range ext {
			if len(blk) != l.blockSize {
				t.Fatalf("len %d: extent %d is %d bytes", n, j, len(blk))
			}
		}
		if got := l.decodeValue(ext, n); !bytes.Equal(got, v) {
			t.Fatalf("len %d: round-trip returned %d bytes", n, len(got))
		}
	}
}
