package pathoram

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/oramtree"
	"repro/internal/simclock"
)

func testConfig(blocks int64, blockSize int) Config {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	rng := blockcipher.NewRNGFromString("pathoram-test")
	sealer, err := blockcipher.NewAESSealer(key, rng.Fork("sealer"))
	if err != nil {
		panic(err)
	}
	return Config{
		Blocks:    blocks,
		BlockSize: blockSize,
		Z:         4,
		Sealer:    sealer,
		RNG:       rng.Fork("oram"),
	}
}

func newTestORAM(t *testing.T, blocks int64, blockSize int) (*ORAM, *device.Sim) {
	t.Helper()
	cfg := testConfig(blocks, blockSize)
	return newORAMWithConfig(t, cfg)
}

func newORAMWithConfig(t *testing.T, cfg Config) (*ORAM, *device.Sim) {
	t.Helper()
	capacity := cfg.Capacity
	if capacity == 0 {
		capacity = 2 * cfg.Blocks
	}
	clk := simclock.New()
	// Generously sized device; New checks the exact requirement.
	dev, err := device.New(device.DRAM(), cfg.SlotSize(), 8*capacity, clk)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	return o, dev
}

func payload(size int, fill byte) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	base := testConfig(8, 64)
	clk := simclock.New()
	dev, _ := device.New(device.DRAM(), base.SlotSize(), 1024, clk)

	bad := base
	bad.Blocks = 0
	if _, err := New(bad, dev); err == nil {
		t.Error("accepted zero blocks")
	}
	bad = base
	bad.BlockSize = 0
	if _, err := New(bad, dev); err == nil {
		t.Error("accepted zero block size")
	}
	bad = base
	bad.Z = 0
	if _, err := New(bad, dev); err == nil {
		t.Error("accepted zero Z")
	}
	bad = base
	bad.Sealer = nil
	if _, err := New(bad, dev); err == nil {
		t.Error("accepted nil sealer")
	}
	bad = base
	bad.RNG = nil
	if _, err := New(bad, dev); err == nil {
		t.Error("accepted nil RNG")
	}
	if _, err := New(base, nil); err == nil {
		t.Error("accepted nil device")
	}
	// Wrong slot size.
	wrongDev, _ := device.New(device.DRAM(), base.SlotSize()+1, 1024, clk)
	if _, err := New(base, wrongDev); err == nil {
		t.Error("accepted device with wrong slot size")
	}
	// Too small.
	tinyDev, _ := device.New(device.DRAM(), base.SlotSize(), 2, clk)
	if _, err := New(base, tinyDev); err == nil {
		t.Error("accepted undersized device")
	}
}

func TestReadNeverWrittenReturnsZeros(t *testing.T) {
	o, _ := newTestORAM(t, 16, 32)
	got, err := o.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 32)) {
		t.Fatalf("Read(unwritten) = %x, want zeros", got)
	}
	if o.RealCount() != 0 {
		t.Fatalf("RealCount() = %d after read of unwritten block", o.RealCount())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	o, _ := newTestORAM(t, 16, 32)
	want := payload(32, 0xAB)
	if err := o.Write(3, want); err != nil {
		t.Fatal(err)
	}
	got, err := o.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Read(3) = %x, want %x", got, want)
	}
	if o.RealCount() != 1 {
		t.Fatalf("RealCount() = %d, want 1", o.RealCount())
	}
}

func TestWriteReturnsPrevious(t *testing.T) {
	o, _ := newTestORAM(t, 16, 16)
	first := payload(16, 1)
	second := payload(16, 2)
	o.Write(7, first)
	prev, err := o.Access(OpWrite, 7, second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prev, first) {
		t.Fatalf("overwrite returned %x, want %x", prev, first)
	}
	got, _ := o.Read(7)
	if !bytes.Equal(got, second) {
		t.Fatalf("Read after overwrite = %x, want %x", got, second)
	}
	if o.RealCount() != 1 {
		t.Fatalf("RealCount() = %d, want 1", o.RealCount())
	}
}

func TestManyBlocksSurviveChurn(t *testing.T) {
	const blocks = 64
	const blockSize = 24
	o, _ := newTestORAM(t, blocks, blockSize)
	for a := int64(0); a < blocks; a++ {
		if err := o.Write(a, payload(blockSize, byte(a))); err != nil {
			t.Fatalf("Write(%d): %v", a, err)
		}
	}
	// Churn with interleaved reads and rewrites.
	rng := blockcipher.NewRNGFromString("churn")
	version := make(map[int64]byte)
	for i := 0; i < 500; i++ {
		a := rng.Int63n(blocks)
		if rng.Intn(2) == 0 {
			v := byte(rng.Intn(256))
			if err := o.Write(a, payload(blockSize, v)); err != nil {
				t.Fatal(err)
			}
			version[a] = v
		} else {
			got, err := o.Read(a)
			if err != nil {
				t.Fatal(err)
			}
			want := byte(a)
			if v, ok := version[a]; ok {
				want = v
			}
			if !bytes.Equal(got, payload(blockSize, want)) {
				t.Fatalf("iteration %d: Read(%d) = %x, want fill %d", i, a, got[:4], want)
			}
		}
	}
	if o.RealCount() != blocks {
		t.Fatalf("RealCount() = %d, want %d", o.RealCount(), blocks)
	}
}

func TestAddrBounds(t *testing.T) {
	o, _ := newTestORAM(t, 8, 16)
	if _, err := o.Read(-1); err == nil {
		t.Error("Read(-1) passed")
	}
	if _, err := o.Read(8); err == nil {
		t.Error("Read(8) passed")
	}
	if err := o.Write(9, payload(16, 0)); err == nil {
		t.Error("Write(9) passed")
	}
	if err := o.Insert(-3, payload(16, 0)); err == nil {
		t.Error("Insert(-3) passed")
	}
	if _, err := o.Has(100); err == nil {
		t.Error("Has(100) passed")
	}
}

func TestWriteWrongSizeRejected(t *testing.T) {
	o, _ := newTestORAM(t, 8, 16)
	if err := o.Write(0, payload(15, 0)); err == nil {
		t.Error("short write accepted")
	}
	if err := o.Insert(0, payload(17, 0)); err == nil {
		t.Error("long insert accepted")
	}
}

func TestInsertThenRead(t *testing.T) {
	o, _ := newTestORAM(t, 16, 16)
	want := payload(16, 0x5C)
	if err := o.Insert(4, want); err != nil {
		t.Fatal(err)
	}
	if o.StashLen() != 1 {
		t.Fatalf("StashLen() = %d after Insert, want 1", o.StashLen())
	}
	has, err := o.Has(4)
	if err != nil || !has {
		t.Fatalf("Has(4) = %v, %v", has, err)
	}
	got, err := o.Read(4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Read after Insert = %x, want %x", got, want)
	}
	if o.Stats().Inserts != 1 {
		t.Fatalf("Stats().Inserts = %d", o.Stats().Inserts)
	}
}

func TestInsertDoesNotTouchDevice(t *testing.T) {
	o, dev := newTestORAM(t, 16, 16)
	before := dev.Stats().Ops()
	if err := o.Insert(2, payload(16, 1)); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Ops(); got != before {
		t.Fatalf("Insert performed %d device ops", got-before)
	}
}

func TestHas(t *testing.T) {
	o, _ := newTestORAM(t, 8, 16)
	has, _ := o.Has(3)
	if has {
		t.Fatal("Has(3) on empty ORAM")
	}
	o.Write(3, payload(16, 9))
	has, _ = o.Has(3)
	if !has {
		t.Fatal("Has(3) = false after Write")
	}
}

func TestDummyAccess(t *testing.T) {
	o, _ := newTestORAM(t, 16, 16)
	o.Write(0, payload(16, 7))
	for i := 0; i < 20; i++ {
		if err := o.DummyAccess(); err != nil {
			t.Fatal(err)
		}
	}
	if o.Stats().DummyAccess != 20 {
		t.Fatalf("DummyAccess count = %d", o.Stats().DummyAccess)
	}
	got, err := o.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(16, 7)) {
		t.Fatal("dummy accesses corrupted a real block")
	}
}

func TestDrainAll(t *testing.T) {
	const blocks = 32
	o, _ := newTestORAM(t, blocks+1, 16)
	for a := int64(0); a < blocks; a++ {
		o.Write(a, payload(16, byte(a+1)))
	}
	// Leave one fresh block in the stash via Insert to confirm the
	// stash drains along with the tree.
	if err := o.Insert(blocks, payload(16, 0xEE)); err != nil {
		t.Fatal(err)
	}

	drained, err := o.DrainAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) != blocks+1 {
		t.Fatalf("DrainAll returned %d blocks, want %d", len(drained), blocks+1)
	}
	for i, b := range drained {
		if b.Addr != int64(i) {
			t.Fatalf("drained[%d].Addr = %d, want ascending order", i, b.Addr)
		}
		wantFill := byte(i + 1)
		if i == blocks {
			wantFill = 0xEE
		}
		if !bytes.Equal(b.Data, payload(16, wantFill)) {
			t.Fatalf("drained[%d] data fill = %x, want %x", i, b.Data[0], wantFill)
		}
	}
	if o.RealCount() != 0 || o.StashLen() != 0 {
		t.Fatalf("ORAM not empty after drain: real=%d stash=%d", o.RealCount(), o.StashLen())
	}
	// All reads now return zeros.
	got, _ := o.Read(5)
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Fatal("block survived DrainAll")
	}
}

func TestAccessTouchesExactlyOnePath(t *testing.T) {
	o, dev := newTestORAM(t, 16, 16)
	o.Write(0, payload(16, 1))

	var slots []int64
	dev.SetHook(func(_ string, op device.Op, slot int64) {
		if op == device.OpRead {
			slots = append(slots, slot)
		}
	})
	if _, err := o.Read(0); err != nil {
		t.Fatal(err)
	}
	dev.SetHook(nil)

	wantReads := (o.Geometry().Levels + 1) * 4 // Z = 4
	if len(slots) != wantReads {
		t.Fatalf("access read %d slots, want %d (one path)", len(slots), wantReads)
	}
	// The slots must form a root-to-leaf path: derive bucket set.
	buckets := map[int64]bool{}
	for _, s := range slots {
		buckets[s/4] = true
	}
	if len(buckets) != o.Geometry().Levels+1 {
		t.Fatalf("access touched %d buckets, want %d", len(buckets), o.Geometry().Levels+1)
	}
	if !buckets[0] {
		t.Fatal("path did not include the root bucket")
	}
}

func TestRepeatedAccessUsesFreshPaths(t *testing.T) {
	// Remap-on-access: reading the same block repeatedly must not pin
	// one leaf. With 32 leaves and 64 reads, seeing ≤ 3 distinct leaf
	// buckets would be astronomically unlikely.
	o, dev := newTestORAM(t, 64, 16)
	o.Write(0, payload(16, 1))

	leafBuckets := map[int64]bool{}
	geom := o.Geometry()
	dev.SetHook(func(_ string, op device.Op, slot int64) {
		bucket := slot / 4
		if op == device.OpRead && geom.LevelOf(bucket) == geom.Levels {
			leafBuckets[bucket] = true
		}
	})
	for i := 0; i < 64; i++ {
		if _, err := o.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	dev.SetHook(nil)
	if len(leafBuckets) <= 3 {
		t.Fatalf("64 reads touched only %d distinct leaf buckets; remap-on-access broken", len(leafBuckets))
	}
}

func TestStashStaysBounded(t *testing.T) {
	// With Z=4 and 50% utilisation the stash peak should stay modest.
	const blocks = 128
	o, _ := newTestORAM(t, blocks, 8)
	for a := int64(0); a < blocks; a++ {
		o.Write(a, payload(8, byte(a)))
	}
	rng := blockcipher.NewRNGFromString("stash-bound")
	for i := 0; i < 2000; i++ {
		if _, err := o.Read(rng.Int63n(blocks)); err != nil {
			t.Fatal(err)
		}
	}
	if peak := o.StashPeak(); peak > 40 {
		t.Fatalf("stash peak %d is suspiciously high for Z=4 at 50%% load", peak)
	}
}

func TestCustomCapacityGeometry(t *testing.T) {
	cfg := testConfig(1024, 16)
	cfg.Capacity = 64 // small tree regardless of address space
	o, _ := newORAMWithConfig(t, cfg)
	if o.Geometry().Slots() < 64 {
		t.Fatalf("geometry slots = %d, want ≥ 64", o.Geometry().Slots())
	}
	if o.Capacity() != o.Geometry().Slots()/2 {
		t.Fatalf("Capacity() = %d", o.Capacity())
	}
	// The full address space is still addressable.
	if err := o.Write(1000, payload(16, 3)); err != nil {
		t.Fatal(err)
	}
	got, err := o.Read(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(16, 3)) {
		t.Fatal("round trip through small tree failed")
	}
}

func TestStatsCounters(t *testing.T) {
	o, _ := newTestORAM(t, 16, 16)
	o.Write(0, payload(16, 1))
	o.Read(0)
	st := o.Stats()
	if st.Accesses != 2 {
		t.Fatalf("Accesses = %d, want 2", st.Accesses)
	}
	pathLen := int64(o.Geometry().Levels + 1)
	if st.BucketReads != 2*pathLen {
		t.Fatalf("BucketReads = %d, want %d", st.BucketReads, 2*pathLen)
	}
	if st.BucketWrites != 2*pathLen {
		t.Fatalf("BucketWrites = %d, want %d", st.BucketWrites, 2*pathLen)
	}
}

func TestTamperedDeviceDetected(t *testing.T) {
	o, dev := newTestORAM(t, 8, 16)
	o.Write(0, payload(16, 1))
	// Corrupt every slot of the root bucket; the next access must
	// fail authentication rather than return wrong data.
	junk := make([]byte, dev.SlotSize())
	for z := int64(0); z < 4; z++ {
		if err := dev.WriteRaw(z, junk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.Read(0); err == nil {
		t.Fatal("read of tampered tree succeeded")
	}
}

// BenchmarkAccess is one random 1 KiB read, with the whole tree on the
// device (trusted=0) and with its top ⌊(L+1)/2⌋ levels held in the
// controller as H-ORAM runs its memory tree (trusted=half); sealed-B/op
// is the plaintext sealed per read, the saving per path.
func BenchmarkAccess(b *testing.B) {
	for _, blocks := range []int64{256, 4096} {
		for _, half := range []bool{false, true} {
			cfg := testConfig(blocks, 1024)
			name := fmt.Sprintf("N=%d/trusted=0", blocks)
			if half {
				geom, err := oramtree.ForCapacity(2*blocks, cfg.Z)
				if err != nil {
					b.Fatal(err)
				}
				cfg.Trusted = (geom.Levels + 1) / 2
				name = fmt.Sprintf("N=%d/trusted=half", blocks)
			}
			b.Run(name, func(b *testing.B) {
				clk := simclock.New()
				dev, err := device.New(device.DRAM(), cfg.SlotSize(), 8*blocks, clk)
				if err != nil {
					b.Fatal(err)
				}
				o, err := New(cfg, dev)
				if err != nil {
					b.Fatal(err)
				}
				buf := payload(1024, 1)
				for a := int64(0); a < blocks; a++ {
					if err := o.Write(a, buf); err != nil {
						b.Fatal(err)
					}
				}
				rng := blockcipher.NewRNGFromString("bench")
				b.SetBytes(int64(cfg.BlockSize))
				sealed0, _ := blockcipher.Throughput()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := o.Read(rng.Int63n(blocks)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				sealed, _ := blockcipher.Throughput()
				b.ReportMetric(float64(sealed-sealed0)/float64(b.N), "sealed-B/op")
			})
		}
	}
}

func TestInsertOverTreeResidentRejected(t *testing.T) {
	o, _ := newTestORAM(t, 8, 16)
	if err := o.Write(1, payload(16, 1)); err != nil {
		t.Fatal(err)
	}
	// Block 1 now lives in the tree (not the stash); Insert must refuse
	// rather than create a stale duplicate.
	if err := o.Insert(1, payload(16, 2)); err == nil {
		t.Fatal("Insert over a tree-resident block succeeded")
	}
	// Re-inserting while still in the stash is allowed.
	if err := o.Insert(5, payload(16, 3)); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(5, payload(16, 4)); err != nil {
		t.Fatalf("stash-replace Insert failed: %v", err)
	}
	got, err := o.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(16, 4)) {
		t.Fatal("stash-replace Insert did not take effect")
	}
}
