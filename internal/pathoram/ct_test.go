// Constant-time mode tests: the CT stash/posmap/eviction path must be
// a pure re-implementation of the default trusted-memory computation —
// same results, same stash occupancy, and, decisively, a byte-for-byte
// identical SEALED device trace. The trace recorder below captures
// every slot read and write at the device boundary (below the sealer),
// so equality there proves ConstantTime changes nothing an adversary
// on the device bus can see.
package pathoram

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/simclock"
	"repro/internal/stash"
)

// devEvent is one device access: direction, slot, and the sealed
// payload bytes that crossed the bus.
type devEvent struct {
	write bool
	slot  int64
	data  []byte
}

// recDev wraps a Backend and logs every access with a payload copy,
// one event per slot in call order, whichever entry point carried it:
// the vectored paths are logged slot by slot, and WriteRaw is logged
// like Write, so setup writes are on the record too.
type recDev struct {
	device.Backend
	log []devEvent
}

func (r *recDev) Read(slot int64, dst []byte) error {
	if err := r.Backend.Read(slot, dst); err != nil {
		return err
	}
	r.log = append(r.log, devEvent{write: false, slot: slot, data: bytes.Clone(dst[:r.SlotSize()])})
	return nil
}
func (r *recDev) Write(slot int64, src []byte) error {
	r.log = append(r.log, devEvent{write: true, slot: slot, data: bytes.Clone(src)})
	return r.Backend.Write(slot, src)
}
func (r *recDev) WriteRaw(slot int64, src []byte) error {
	r.log = append(r.log, devEvent{write: true, slot: slot, data: bytes.Clone(src)})
	return r.Backend.WriteRaw(slot, src)
}
func (r *recDev) ReadSlots(slots []int64, bufs [][]byte) error {
	if err := r.Backend.ReadSlots(slots, bufs); err != nil {
		return err
	}
	for i, slot := range slots {
		r.log = append(r.log, devEvent{write: false, slot: slot, data: bytes.Clone(bufs[i][:r.SlotSize()])})
	}
	return nil
}
func (r *recDev) WriteSlots(slots []int64, bufs [][]byte) error {
	for i, slot := range slots {
		r.log = append(r.log, devEvent{write: true, slot: slot, data: bytes.Clone(bufs[i])})
	}
	return r.Backend.WriteSlots(slots, bufs)
}

// newRecORAM builds an ORAM over a recording device.
func newRecORAM(t *testing.T, blocks int64, blockSize int, ct bool) (*ORAM, *recDev) {
	t.Helper()
	cfg := testConfig(blocks, blockSize)
	cfg.ConstantTime = ct
	clk := simclock.New()
	dev, err := device.New(device.DRAM(), cfg.SlotSize(), 8*2*cfg.Blocks, clk)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recDev{Backend: dev}
	o, err := New(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	return o, rec
}

// ctWorkload drives one ORAM through a deterministic mix of fresh
// reads, writes, overwrites, inserts, dummy accesses and membership
// probes, returning every byte the ORAM handed back. The mix is built
// to exercise the CT paths: repeated hot addresses keep blocks
// resident in the stash, cold addresses force tree round trips, and
// the Insert/Has calls run the stash-only fast paths.
func ctWorkload(t *testing.T, o *ORAM) []byte {
	t.Helper()
	var out bytes.Buffer
	n := o.cfg.Blocks
	// Seed some state, including an Insert (stash-direct).
	for i := int64(0); i < n/2; i++ {
		if err := o.Write(i, payload(o.cfg.BlockSize, byte(i*7))); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Insert(n-1, payload(o.cfg.BlockSize, 0xEE)); err != nil {
		t.Fatal(err)
	}
	// lcg is a fixed deterministic sequence, identical per mode.
	lcg := uint64(12345)
	next := func(mod int64) int64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int64((lcg >> 33) % uint64(mod))
	}
	for i := 0; i < 300; i++ {
		addr := next(n)
		switch next(4) {
		case 0:
			got, err := o.Read(addr)
			if err != nil {
				t.Fatal(err)
			}
			out.Write(got)
		case 1:
			if err := o.Write(addr, payload(o.cfg.BlockSize, byte(i))); err != nil {
				t.Fatal(err)
			}
		case 2:
			ok, err := o.Has(addr)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "has(%d)=%v;", addr, ok)
		case 3:
			if err := o.DummyAccess(); err != nil {
				t.Fatal(err)
			}
		}
	}
	fmt.Fprintf(&out, "stash=%d peak=%d real=%d", o.StashLen(), o.StashPeak(), o.RealCount())
	return out.Bytes()
}

// TestConstantTimeTraceByteIdentical is the tentpole's core claim:
// with ConstantTime on, the sealed device trace — every slot touched,
// in order, with the exact ciphertext bytes — equals the default
// mode's, so the hardening is invisible below the trust boundary.
func TestConstantTimeTraceByteIdentical(t *testing.T) {
	oDef, recDef := newRecORAM(t, 64, 32, false)
	oCT, recCT := newRecORAM(t, 64, 32, true)

	outDef := ctWorkload(t, oDef)
	outCT := ctWorkload(t, oCT)
	if !bytes.Equal(outDef, outCT) {
		t.Fatalf("workload results differ between modes:\ndefault: %q\nct:      %q", outDef, outCT)
	}

	if len(recDef.log) != len(recCT.log) {
		t.Fatalf("device event counts differ: default %d, ct %d", len(recDef.log), len(recCT.log))
	}
	for i := range recDef.log {
		d, c := recDef.log[i], recCT.log[i]
		if d.write != c.write || d.slot != c.slot {
			t.Fatalf("event %d: default %v slot %d, ct %v slot %d", i, d.write, d.slot, c.write, c.slot)
		}
		if !bytes.Equal(d.data, c.data) {
			t.Fatalf("event %d (write=%v slot=%d): sealed payloads differ", i, d.write, d.slot)
		}
	}
	if len(recDef.log) == 0 {
		t.Fatal("recorder captured no device events")
	}
}

// TestConstantTimeDrainAndStateRoundTrip pins DrainAll and the
// export/import path (snapshot capture) to the default mode.
func TestConstantTimeDrainAndStateRoundTrip(t *testing.T) {
	oDef, _ := newRecORAM(t, 32, 16, false)
	oCT, _ := newRecORAM(t, 32, 16, true)
	for _, o := range []*ORAM{oDef, oCT} {
		for i := int64(0); i < 20; i++ {
			if err := o.Write(i, payload(16, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	}

	lDef, bDef, rDef, err := oDef.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	lCT, bCT, rCT, err := oCT.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if rDef != rCT || len(lDef) != len(lCT) || len(bDef) != len(bCT) {
		t.Fatalf("export shapes differ: real %d/%d, leaves %d/%d, blocks %d/%d",
			rDef, rCT, len(lDef), len(lCT), len(bDef), len(bCT))
	}
	for i := range lDef {
		if lDef[i] != lCT[i] {
			t.Fatalf("leaf %d: %d vs %d", i, lDef[i], lCT[i])
		}
	}
	cmp := func(a, b []stash.Block) {
		t.Helper()
		for i := range a {
			if a[i].Addr != b[i].Addr || !bytes.Equal(a[i].Data, b[i].Data) {
				t.Fatalf("stash block %d differs: addr %d vs %d", i, a[i].Addr, b[i].Addr)
			}
		}
	}
	cmp(bDef, bCT)

	// Re-import each ORAM's own export (the restore path pairs the
	// state with the matching device image), then drain everything and
	// compare the full block sets.
	if err := oDef.ImportState(lDef, bDef, rDef); err != nil {
		t.Fatal(err)
	}
	if err := oCT.ImportState(lCT, bCT, rCT); err != nil {
		t.Fatal(err)
	}
	dDef, err := oDef.DrainAll()
	if err != nil {
		t.Fatal(err)
	}
	dCT, err := oCT.DrainAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(dDef) != len(dCT) {
		t.Fatalf("DrainAll counts differ: %d vs %d", len(dDef), len(dCT))
	}
	cmp(dDef, dCT)
	if len(dDef) != 20 {
		t.Fatalf("DrainAll returned %d blocks, want 20", len(dDef))
	}
}

// TestConstantTimeRejectsExternalPositions: the CT path owns the one
// in-controller position map and switches it to full-length scan
// lookups; a default-mode instance keeps the indexed lookups.
func TestConstantTimeRejectsExternalPositions(t *testing.T) {
	for _, ct := range []bool{false, true} {
		o, _ := newRecORAM(t, 16, 32, ct)
		if got := o.pm.ConstantTime(); got != ct {
			t.Fatalf("ConstantTime=%v: position map scan discipline is %v", ct, got)
		}
	}
}
