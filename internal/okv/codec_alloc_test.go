// Allocation regressions for the slot codec's in-place forms: the
// steady-state op path encodes every batch-3 block into pooled
// scratch, so the codec itself must not allocate.
package okv

import (
	"bytes"
	"testing"
)

func TestCodecIntoFormsMatchAllocating(t *testing.T) {
	l := fuzzLayout()
	key := []byte("alice")
	value := bytes.Repeat([]byte{7}, 100)

	slot := make([]byte, l.blockSize)
	for i := range slot {
		slot[i] = 0xEE // stale pool contents must be overwritten
	}
	l.encodeSlotInto(slot, key, len(value))
	if !bytes.Equal(slot, l.encodeSlot(key, len(value))) {
		t.Fatal("encodeSlotInto differs from encodeSlot")
	}

	ext := make([][]byte, l.extents)
	for j := range ext {
		ext[j] = bytes.Repeat([]byte{0xEE}, l.blockSize)
	}
	l.encodeValueInto(ext, value)
	want := l.encodeValue(value)
	for j := range ext {
		if !bytes.Equal(ext[j], want[j]) {
			t.Fatalf("encodeValueInto extent %d differs from encodeValue", j)
		}
	}

	// nil value scrubs the whole run.
	l.encodeValueInto(ext, nil)
	for j := range ext {
		for i, b := range ext[j] {
			if b != 0 {
				t.Fatalf("scrub left extent %d byte %d = 0x%02x", j, i, b)
			}
		}
	}
}

func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	l := fuzzLayout()
	key := []byte("alice")
	value := bytes.Repeat([]byte{9}, 100)
	slot := make([]byte, l.blockSize)
	ext := make([][]byte, l.extents)
	for j := range ext {
		ext[j] = make([]byte, l.blockSize)
	}

	if avg := testing.AllocsPerRun(200, func() {
		l.encodeSlotInto(slot, key, len(value))
	}); avg != 0 {
		t.Errorf("encodeSlotInto allocates %.1f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		l.encodeValueInto(ext, value)
	}); avg != 0 {
		t.Errorf("encodeValueInto allocates %.1f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := l.slotState(slot); ok != 1 {
			t.Fatal("slotState refuses an encoded slot")
		}
	}); avg != 0 {
		t.Errorf("slotState allocates %.1f times, want 0", avg)
	}
}
