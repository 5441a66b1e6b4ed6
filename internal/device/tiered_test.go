package device

import (
	"bytes"
	"testing"

	"repro/internal/simclock"
)

func newTieredPair(t *testing.T, slotSize int, fastSlots, slowSlots, boundary, total int64) (*Tiered, *Sim, *Sim) {
	t.Helper()
	clk := simclock.New()
	fast, err := New(DRAM(), slotSize, fastSlots, clk)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(PaperHDD(), slotSize, slowSlots, clk)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := NewTiered(fast, slow, boundary, total)
	if err != nil {
		t.Fatal(err)
	}
	return tiered, fast, slow
}

func TestNewTieredValidation(t *testing.T) {
	clk := simclock.New()
	fast, _ := New(DRAM(), 64, 10, clk)
	slow, _ := New(PaperHDD(), 64, 10, clk)
	other, _ := New(PaperHDD(), 32, 10, clk)

	if _, err := NewTiered(nil, slow, 5, 10); err == nil {
		t.Error("accepted nil fast device")
	}
	if _, err := NewTiered(fast, nil, 5, 10); err == nil {
		t.Error("accepted nil slow device")
	}
	if _, err := NewTiered(fast, other, 5, 10); err == nil {
		t.Error("accepted mismatched slot sizes")
	}
	if _, err := NewTiered(fast, slow, -1, 10); err == nil {
		t.Error("accepted negative boundary")
	}
	if _, err := NewTiered(fast, slow, 11, 10); err == nil {
		t.Error("accepted boundary beyond total")
	}
	if _, err := NewTiered(fast, slow, 5, 100); err == nil {
		t.Error("accepted slow tier too small for remainder")
	}
	if _, err := NewTiered(fast, slow, 20, 25); err == nil {
		t.Error("accepted boundary beyond fast capacity")
	}
}

func TestTieredRouting(t *testing.T) {
	tiered, fast, slow := newTieredPair(t, 16, 8, 8, 4, 12)
	src := bytes.Repeat([]byte{0xAA}, 16)

	// Slot 2 → fast tier slot 2.
	if err := tiered.Write(2, src); err != nil {
		t.Fatal(err)
	}
	if fast.Stats().Writes != 1 || slow.Stats().Writes != 0 {
		t.Fatalf("slot 2 routed wrong: fast=%d slow=%d", fast.Stats().Writes, slow.Stats().Writes)
	}

	// Slot 9 → slow tier slot 5.
	if err := tiered.Write(9, src); err != nil {
		t.Fatal(err)
	}
	if slow.Stats().Writes != 1 {
		t.Fatalf("slot 9 not routed to slow tier")
	}
	dst := make([]byte, 16)
	if err := slow.Read(5, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("slow tier offset mapping wrong")
	}

	// Round trip through the composite.
	if err := tiered.Read(9, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("composite read mismatched")
	}
}

func TestTieredGeometryAccessors(t *testing.T) {
	tiered, fast, slow := newTieredPair(t, 16, 8, 8, 4, 12)
	if tiered.Slots() != 12 {
		t.Fatalf("Slots() = %d, want 12", tiered.Slots())
	}
	if tiered.Boundary() != 4 {
		t.Fatalf("Boundary() = %d", tiered.Boundary())
	}
	if tiered.SlotSize() != 16 {
		t.Fatalf("SlotSize() = %d", tiered.SlotSize())
	}
	if tiered.Fast() != Backend(fast) || tiered.Slow() != Backend(slow) {
		t.Fatal("tier accessors wrong")
	}
	if tiered.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestTieredStatsSum(t *testing.T) {
	tiered, _, _ := newTieredPair(t, 16, 8, 8, 4, 12)
	src := make([]byte, 16)
	tiered.Write(0, src)  // fast
	tiered.Write(10, src) // slow
	tiered.Read(0, src)
	st := tiered.Stats()
	if st.Writes != 2 || st.Reads != 1 {
		t.Fatalf("summed stats = %+v", st)
	}
}

func TestTieredWriteRawRouting(t *testing.T) {
	tiered, fast, slow := newTieredPair(t, 16, 8, 8, 4, 12)
	src := bytes.Repeat([]byte{0x33}, 16)
	if err := tiered.WriteRaw(1, src); err != nil {
		t.Fatal(err)
	}
	if err := tiered.WriteRaw(6, src); err != nil {
		t.Fatal(err)
	}
	if fast.Stats().Ops() != 0 || slow.Stats().Ops() != 0 {
		t.Fatal("WriteRaw charged device time")
	}
	dst := make([]byte, 16)
	tiered.Read(1, dst)
	if !bytes.Equal(dst, src) {
		t.Fatal("raw write to fast tier lost")
	}
	tiered.Read(6, dst)
	if !bytes.Equal(dst, src) {
		t.Fatal("raw write to slow tier lost")
	}
}
