package horam

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testConfig builds a small H-ORAM config: N blocks with a memory
// budget of memBlocks sealed slots.
func testConfig(blocks int64, blockSize int, memSlots int64) Config {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(13 * i)
	}
	rng := blockcipher.NewRNGFromString("horam-test")
	sealer, err := blockcipher.NewAESSealer(key, rng.Fork("sealer"))
	if err != nil {
		panic(err)
	}
	cfg := Config{
		Blocks:    blocks,
		BlockSize: blockSize,
		Z:         4,
		Sealer:    sealer,
		RNG:       rng.Fork("oram"),
	}
	cfg.MemoryBytes = memSlots * int64(cfg.SlotSize())
	return cfg
}

func build(t *testing.T, blocks int64, blockSize int, memSlots int64) *ORAM {
	t.Helper()
	o, err := New(testConfig(blocks, blockSize, memSlots))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func fill(size int, b byte) []byte { return bytes.Repeat([]byte{b}, size) }

func TestValidation(t *testing.T) {
	base := testConfig(64, 32, 64)

	bad := base
	bad.Blocks = 0
	if _, err := New(bad); err == nil {
		t.Error("accepted zero blocks")
	}
	bad = base
	bad.BlockSize = -1
	if _, err := New(bad); err == nil {
		t.Error("accepted negative block size")
	}
	bad = base
	bad.MemoryBytes = 0
	if _, err := New(bad); err == nil {
		t.Error("accepted zero memory budget")
	}
	bad = base
	bad.Sealer = nil
	if _, err := New(bad); err == nil {
		t.Error("accepted nil sealer")
	}
	bad = base
	bad.RNG = nil
	if _, err := New(bad); err == nil {
		t.Error("accepted nil rng")
	}
	bad = base
	bad.ShuffleRatio = 1.5
	if _, err := New(bad); err == nil {
		t.Error("accepted shuffle ratio > 1")
	}
	bad = base
	bad.Stages = []Stage{{C: 2, Frac: 0.5}} // sums to 0.5
	if _, err := New(bad); err == nil {
		t.Error("accepted stage fractions not summing to 1")
	}
	bad = base
	bad.Stages = []Stage{{C: 0, Frac: 1}}
	if _, err := New(bad); err == nil {
		t.Error("accepted stage with C=0")
	}
	bad = base
	bad.PrefetchDepth = 2
	bad.Stages = []Stage{{C: 5, Frac: 1}}
	if _, err := New(bad); err == nil {
		t.Error("accepted prefetch depth ≤ max C")
	}
	bad = base
	bad.MemoryBytes = 1 // less than one bucket
	if _, err := New(bad); err == nil {
		t.Error("accepted memory budget below one bucket")
	}
}

func TestGeometry(t *testing.T) {
	o := build(t, 100, 16, 64)
	if o.Partitions() != 10 {
		t.Fatalf("Partitions() = %d, want 10", o.Partitions())
	}
	if o.PartitionSlots() != 10 {
		t.Fatalf("PartitionSlots() = %d, want 10 (no slack at full shuffle)", o.PartitionSlots())
	}
	if o.MissBudget() != o.MemTreeCapacity() {
		t.Fatalf("MissBudget %d != tree capacity %d", o.MissBudget(), o.MemTreeCapacity())
	}
	if o.MissBudget() <= 0 {
		t.Fatal("non-positive miss budget")
	}
}

func TestSingleReadWrite(t *testing.T) {
	o := build(t, 64, 32, 64)
	want := fill(32, 0xC3)
	if err := o.Write(7, want); err != nil {
		t.Fatal(err)
	}
	got, err := o.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Read(7) = %x..., want %x...", got[:4], want[:4])
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	o := build(t, 64, 16, 64)
	got, err := o.Read(42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Fatal("unwritten block not zero")
	}
}

func TestDataSurvivesShuffles(t *testing.T) {
	const blocks = 64
	// Tiny memory: 16 slots → capacity 8? forces frequent shuffles.
	o := build(t, blocks, 16, 28)
	version := make(map[int64]byte)
	rng := blockcipher.NewRNGFromString("churn")
	for i := 0; i < 400; i++ {
		a := rng.Int63n(blocks)
		if rng.Intn(2) == 0 {
			v := byte(rng.Intn(256))
			if err := o.Write(a, fill(16, v)); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			version[a] = v
		} else {
			got, err := o.Read(a)
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			want := byte(0)
			if v, ok := version[a]; ok {
				want = v
			}
			if !bytes.Equal(got, fill(16, want)) {
				t.Fatalf("iteration %d: Read(%d) got fill %x, want %x", i, a, got[0], want)
			}
		}
	}
	if o.Stats().Shuffles == 0 {
		t.Fatal("no shuffle happened despite tiny memory; period logic broken")
	}
	if err := o.perm.ValidateStoragePermutation(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchCompletesAllRequests(t *testing.T) {
	const blocks = 128
	o := build(t, blocks, 16, 128)
	var reqs []*Request
	for a := int64(0); a < blocks; a++ {
		reqs = append(reqs, &Request{Op: OpWrite, Addr: a, Data: fill(16, byte(a))})
	}
	if err := o.RunBatch(reqs); err != nil {
		t.Fatal(err)
	}
	if o.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", o.Pending())
	}
	var reads []*Request
	for a := int64(0); a < blocks; a++ {
		reads = append(reads, &Request{Op: OpRead, Addr: a})
	}
	if err := o.RunBatch(reads); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if !bytes.Equal(r.Result, fill(16, byte(r.Addr))) {
			t.Fatalf("batch read %d corrupted", r.Addr)
		}
	}
	if got := o.Stats().Requests; got != 2*blocks {
		t.Fatalf("Requests = %d, want %d", got, 2*blocks)
	}
}

func TestRepeatedAddressInOneBatch(t *testing.T) {
	o := build(t, 64, 16, 64)
	reqs := []*Request{
		{Op: OpWrite, Addr: 3, Data: fill(16, 1)},
		{Op: OpRead, Addr: 3},
		{Op: OpWrite, Addr: 3, Data: fill(16, 2)},
		{Op: OpRead, Addr: 3},
	}
	if err := o.RunBatch(reqs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reqs[1].Result, fill(16, 1)) {
		t.Fatalf("first read saw %x, want 01 (program order)", reqs[1].Result[0])
	}
	if !bytes.Equal(reqs[3].Result, fill(16, 2)) {
		t.Fatalf("second read saw %x, want 02", reqs[3].Result[0])
	}
}

func TestSubmitValidation(t *testing.T) {
	o := build(t, 16, 16, 64)
	if err := o.Submit(&Request{Op: OpRead, Addr: -1}); err == nil {
		t.Error("accepted negative address")
	}
	if err := o.Submit(&Request{Op: OpRead, Addr: 16}); err == nil {
		t.Error("accepted out-of-range address")
	}
	if err := o.Submit(&Request{Op: OpWrite, Addr: 0, Data: fill(3, 0)}); err == nil {
		t.Error("accepted short write")
	}
	if err := o.Submit(nil); err == nil {
		t.Error("accepted nil request")
	}
}

// TestRunBatchRejectsWithoutQueuing: a batch with a malformed request
// after a valid one is rejected whole — the valid write is not left in
// the ROB, so it neither blocks the next PadToCycles nor takes effect
// when a later request drains the queue.
func TestRunBatchRejectsWithoutQueuing(t *testing.T) {
	o := build(t, 16, 16, 64)
	err := o.RunBatch([]*Request{
		{Op: OpWrite, Addr: 3, Data: fill(16, 7)},
		{Op: OpRead, Addr: 999},
	})
	if err == nil {
		t.Fatal("RunBatch accepted an out-of-range address")
	}
	if n := o.Pending(); n != 0 {
		t.Errorf("rejected batch left %d requests queued", n)
	}
	if _, err := o.PadToCycles(o.Stats().Cycles + 1); err != nil {
		t.Errorf("PadToCycles after a rejected batch: %v", err)
	}
	got, err := o.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Errorf("write of the rejected batch took effect: read %x", got)
	}
}

func TestCycleShapeUniform(t *testing.T) {
	// Every cycle must issue exactly 1 storage read; memory accesses
	// per cycle must equal the stage's c (hits + dummies). We verify
	// via device counters: storage reads == cycles (access periods
	// only; shuffles add bulk traffic, so use a config that never
	// shuffles during the check).
	o := build(t, 256, 16, 256) // budget large enough to avoid shuffle
	var reqs []*Request
	for a := int64(0); a < 60; a++ {
		reqs = append(reqs, &Request{Op: OpRead, Addr: a % 16})
	}
	if err := o.RunBatch(reqs); err != nil {
		t.Fatal(err)
	}
	if o.Stats().Shuffles != 0 {
		t.Skip("unexpected shuffle; adjust config")
	}
	storReads := o.Stor().Stats().Reads
	if storReads != o.Stats().Cycles {
		t.Fatalf("storage reads %d != cycles %d; cycle shape leaks the miss pattern",
			storReads, o.Stats().Cycles)
	}
	if o.Stor().Stats().Writes != 0 {
		t.Fatalf("access period wrote %d storage slots; loads only per §4.1", o.Stor().Stats().Writes)
	}
}

// auditConfig is the geometry the storage-bus checks run at: 4096
// blocks of 256 B under a 512-block memory budget, unsealed — the bus
// addresses do not depend on the sealer.
func auditConfig(seed string) Config {
	return Config{
		Blocks:      4096,
		BlockSize:   256,
		MemoryBytes: 512 * 256,
		Sealer:      blockcipher.NullSealer{},
		RNG:         blockcipher.NewRNGFromString(seed).Fork("oram"),
	}
}

// workloads are the two address streams the storage-bus checks
// compare: 95 % of requests to 0.2 % of the blocks, and uniform.
var workloads = []struct {
	name string
	gen  func(n int64, rng *blockcipher.RNG) (workload.Generator, error)
	// requests is enough for three shuffles at auditConfig: one
	// storage load serves many hot requests but only one uniform one.
	requests int
}{
	{"hot", func(n int64, rng *blockcipher.RNG) (workload.Generator, error) {
		return workload.NewHotspot(n, 0.95, 0.002, rng)
	}, 4000},
	{"uniform", func(n int64, rng *blockcipher.RNG) (workload.Generator, error) {
		return workload.NewUniform(n, rng)
	}, 1200},
}

// draw returns count addresses from gen over o's blocks, seeded by seed.
func draw(t *testing.T, o *ORAM, gen func(int64, *blockcipher.RNG) (workload.Generator, error), seed string, count int) []int64 {
	t.Helper()
	g, err := gen(o.cfg.Blocks, blockcipher.NewRNGFromString(seed))
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]int64, count)
	for i := range addrs {
		addrs[i] = g.Next()
	}
	return addrs
}

// recordStorage reads addrs through o and returns its storage bus as
// the square-root check takes it: every access-period read and every
// shuffle write, with the shuffle's own reads dropped. Access periods
// never write storage (TestCycleShapeUniform), so Reads() of the result
// is exactly the access-period read trace.
func recordStorage(t *testing.T, o *ORAM, addrs []int64) *trace.Recorder {
	t.Helper()
	rec := trace.NewRecorder()
	h := rec.Hook()
	o.Stor().SetHook(func(dev string, op device.Op, slot int64) {
		if o.InShuffle() && op == device.OpRead {
			return
		}
		h(dev, op, slot)
	})
	defer o.Stor().SetHook(nil)
	reqs := make([]*Request, len(addrs))
	for i, a := range addrs {
		reqs[i] = &Request{Op: OpRead, Addr: a}
	}
	if err := o.RunBatch(reqs); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestSquareRootInvariantHolds(t *testing.T) {
	// Between two shuffle rewrites of a storage slot, access traffic
	// reads it at most once (§4.3) — checked over the whole run, across
	// several shuffles, with full and partial shuffling.
	type tc struct {
		name     string
		cfg      Config
		gen      func(int64, *blockcipher.RNG) (workload.Generator, error)
		requests int
	}
	var cases []tc
	for _, ratio := range []float64{0, 0.5} {
		for _, wl := range workloads {
			cfg := auditConfig("sqrt-inv")
			cfg.ShuffleRatio = ratio
			cases = append(cases, tc{fmt.Sprintf("ratio=%g/%s", ratio, wl.name), cfg, wl.gen, wl.requests})
		}
	}
	cases = append(cases, tc{"constantTime/block_ct/hot", ctGeometry(true), workloads[0].gen, 1600})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := recordStorage(t, o, draw(t, o, c.gen, "sqrt-inv-wl", c.requests))
			if at := trace.FirstRepeat(rec.Events()); at >= 0 {
				t.Fatalf("storage slot %d read twice without a shuffle rewrite in between (event %d of %d)",
					rec.Events()[at].Slot, at, rec.Len())
			}
			if st := o.Stats(); st.Shuffles < 3 {
				t.Fatalf("only %d shuffles; the check must span several periods", st.Shuffles)
			}
			t.Logf("%d events, %d shuffles", rec.Len(), o.Stats().Shuffles)
		})
	}
}

func TestStorageTraceUniformAndWorkloadIndependent(t *testing.T) {
	// The adversary sees which storage slots access periods read. Under
	// a hot workload those slots must still look uniform, and must not
	// be told apart from a uniform workload's by a two-sample test.
	const (
		requests = 4000
		bins     = 16
		alpha    = 0.001
	)
	reads := make(map[string][]int64)
	var hotAddrs []int64
	var slots int64
	for _, wl := range workloads {
		cfg := auditConfig("audit-" + wl.name)
		o, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addrs := draw(t, o, wl.gen, "audit-wl-"+wl.name, requests)
		reads[wl.name] = recordStorage(t, o, addrs).Reads()
		slots = o.Partitions() * o.PartitionSlots()
		if wl.name == "hot" {
			hotAddrs = addrs
		}
	}

	t.Run("hot-is-uniform", func(t *testing.T) {
		check, err := trace.CheckUniform(reads["hot"], slots, bins, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !check.Pass {
			t.Errorf("hot workload's storage reads are not uniform: chi2 %.1f > critical %.1f", check.Chi2, check.Critical)
		}
		t.Logf("uniformity chi2 %.1f (critical %.1f)", check.Chi2, check.Critical)
	})
	t.Run("hot-matches-uniform", func(t *testing.T) {
		chi2, dof, err := trace.TwoSampleChiSquare(reads["hot"], reads["uniform"], slots, bins)
		if err != nil {
			t.Fatal(err)
		}
		crit := trace.ChiSquareCritical(dof, alpha)
		if chi2 > crit {
			t.Errorf("hot and uniform storage traces are distinguishable: chi2 %.1f > critical %.1f", chi2, crit)
		}
		t.Logf("hot vs uniform chi2 %.1f (critical %.1f)", chi2, crit)
	})
	// Power canary: an unprotected store reads the hot workload's
	// addresses as its slots. Both tests must see that, or a pass
	// above would say nothing.
	t.Run("canary-detected", func(t *testing.T) {
		canary, err := trace.CheckUniform(hotAddrs, slots, bins, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if canary.Pass {
			t.Errorf("uniformity test passed an unprotected hot trace: chi2 %.1f ≤ critical %.1f", canary.Chi2, canary.Critical)
		}
		canaryChi2, canaryDof, err := trace.TwoSampleChiSquare(hotAddrs, reads["uniform"], slots, bins)
		if err != nil {
			t.Fatal(err)
		}
		if canaryCrit := trace.ChiSquareCritical(canaryDof, alpha); canaryChi2 <= canaryCrit {
			t.Errorf("two-sample test could not tell an unprotected hot trace from H-ORAM's: chi2 %.1f ≤ critical %.1f", canaryChi2, canaryCrit)
		}
		t.Logf("canary chi2 %.1f and %.1f", canary.Chi2, canaryChi2)
	})
}

func TestHitsDontTouchStorageBeyondPadding(t *testing.T) {
	// A batch of repeated requests to one hot block: after the first
	// fetch everything is a hit, yet storage still sees exactly one
	// read per cycle (the dummy prefetch) — the adversary cannot tell
	// a hot workload from a cold one.
	o := build(t, 256, 16, 200)
	var reqs []*Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, &Request{Op: OpRead, Addr: 5})
	}
	if err := o.RunBatch(reqs); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1 (single hot block)", st.Misses)
	}
	if st.DummyIO != st.Cycles-1 {
		t.Fatalf("DummyIO = %d, want %d (every other cycle pads)", st.DummyIO, st.Cycles-1)
	}
	if got := o.Stor().Stats().Reads; got != st.Cycles {
		t.Fatalf("storage reads %d != cycles %d", got, st.Cycles)
	}
}

func TestShuffleUsesSequentialIO(t *testing.T) {
	// The shuffle's storage traffic must be overwhelmingly sequential
	// — that is the effect the paper's §5.2 highlights (10-20x cheaper
	// per byte than random page reads).
	o := build(t, 400, 16, 60)
	var reqs []*Request
	rng := blockcipher.NewRNGFromString("seq")
	for i := 0; i < 200; i++ {
		reqs = append(reqs, &Request{Op: OpRead, Addr: rng.Int63n(400)})
	}
	if err := o.RunBatch(reqs); err != nil {
		t.Fatal(err)
	}
	if o.Stats().Shuffles == 0 {
		t.Fatal("no shuffle to observe")
	}
	st := o.Stor().Stats()
	if st.Writes == 0 {
		t.Fatal("shuffle wrote nothing")
	}
	seqFrac := float64(st.SeqWrites) / float64(st.Writes)
	if seqFrac < 0.9 {
		t.Fatalf("only %.0f%% of storage writes were sequential; shuffle is not streaming", 100*seqFrac)
	}
}

func TestPartialShuffle(t *testing.T) {
	cfg := testConfig(144, 16, 60)
	cfg.ShuffleRatio = 0.25
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.PartitionSlots() != 2*12 {
		t.Fatalf("PartitionSlots() = %d, want 24 (2x slack)", o.PartitionSlots())
	}
	version := make(map[int64]byte)
	rng := blockcipher.NewRNGFromString("partial")
	for i := 0; i < 300; i++ {
		a := rng.Int63n(144)
		if rng.Intn(2) == 0 {
			v := byte(rng.Intn(256))
			if err := o.Write(a, fill(16, v)); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			version[a] = v
		} else {
			got, err := o.Read(a)
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			want := byte(0)
			if v, ok := version[a]; ok {
				want = v
			}
			if !bytes.Equal(got, fill(16, want)) {
				t.Fatalf("iteration %d: Read(%d) corrupted", i, a)
			}
		}
	}
	st := o.Stats()
	if st.Shuffles == 0 {
		t.Fatal("no shuffles")
	}
	perShuffle := float64(st.PartShuffled) / float64(st.Shuffles)
	if perShuffle > 6 { // 12 partitions * 0.25 = 3, allow pool spill
		t.Fatalf("partial shuffle touched %.1f partitions per period, want ≈3", perShuffle)
	}
}

func TestStagesProgressC(t *testing.T) {
	cfg := testConfig(64, 16, 64)
	cfg.Stages = []Stage{{C: 1, Frac: 0.5}, {C: 4, Frac: 0.5}}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.currentC(); got != 1 {
		t.Fatalf("currentC at period start = %d, want 1", got)
	}
	o.missCount = o.missBudget / 2
	if got := o.currentC(); got != 4 {
		t.Fatalf("currentC at half period = %d, want 4", got)
	}
	o.missCount = o.missBudget
	if got := o.currentC(); got != 4 {
		t.Fatalf("currentC at period end = %d, want 4", got)
	}
}

func TestAccountingSplitsTime(t *testing.T) {
	o := build(t, 144, 16, 48)
	rng := blockcipher.NewRNGFromString("acct")
	var reqs []*Request
	for i := 0; i < 120; i++ {
		reqs = append(reqs, &Request{Op: OpRead, Addr: rng.Int63n(144)})
	}
	if err := o.RunBatch(reqs); err != nil {
		t.Fatal(err)
	}
	if o.Stats().Shuffles == 0 {
		t.Fatal("no shuffle; cannot check accounting")
	}
	if o.AccessTime() <= 0 || o.ShuffleTime() <= 0 {
		t.Fatalf("accounting: access=%v shuffle=%v", o.AccessTime(), o.ShuffleTime())
	}
	total := o.AccessTime() + o.ShuffleTime()
	if got := o.Clock().Now(); got != total {
		t.Fatalf("clock %v != access+shuffle %v", got, total)
	}
}

func TestMultiUserTaggedRequests(t *testing.T) {
	o := build(t, 64, 16, 64)
	var reqs []*Request
	for u := 0; u < 4; u++ {
		for i := 0; i < 8; i++ {
			addr := int64(u*8 + i)
			reqs = append(reqs, &Request{Op: OpWrite, Addr: addr, Data: fill(16, byte(u)), User: u})
		}
	}
	if err := o.RunBatch(reqs); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 4; u++ {
		got, err := o.Read(int64(u * 8))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fill(16, byte(u))) {
			t.Fatalf("user %d data corrupted", u)
		}
	}
}

func BenchmarkHORAMBatch(b *testing.B) {
	for _, blocks := range []int64{256, 1024} {
		b.Run(fmt.Sprintf("N=%d", blocks), func(b *testing.B) {
			cfg := testConfig(blocks, 64, blocks/2)
			cfg.Sealer = blockcipher.NullSealer{}
			cfg.MemoryBytes = (blocks / 2) * int64(cfg.SlotSize())
			o, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := blockcipher.NewRNGFromString("bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Read(rng.Int63n(blocks)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPadToCycles: padding runs exactly enough dummy cycles to reach
// the target, each with the standard bus shape (one storage load, so
// DummyIO advances in step), refuses to run with requests queued, and
// no-ops when the counter is already at or past the target.
func TestPadToCycles(t *testing.T) {
	o := build(t, 256, 32, 64)
	if _, err := o.Read(3); err != nil {
		t.Fatal(err)
	}
	base := o.Stats()

	padded, err := o.PadToCycles(base.Cycles + 5)
	if err != nil {
		t.Fatal(err)
	}
	if padded != 5 {
		t.Fatalf("PadToCycles ran %d cycles, want 5", padded)
	}
	st := o.Stats()
	if st.Cycles != base.Cycles+5 {
		t.Fatalf("Cycles = %d, want %d", st.Cycles, base.Cycles+5)
	}
	if st.DummyIO != base.DummyIO+5 {
		t.Fatalf("DummyIO advanced %d, want 5 (every pad cycle must issue its storage load)", st.DummyIO-base.DummyIO)
	}
	if st.Requests != base.Requests {
		t.Fatalf("padding completed %d requests", st.Requests-base.Requests)
	}

	if padded, err := o.PadToCycles(0); err != nil || padded != 0 {
		t.Fatalf("PadToCycles(0) = (%d, %v), want no-op", padded, err)
	}

	if err := o.Submit(&Request{Op: OpRead, Addr: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.PadToCycles(st.Cycles + 1); err == nil {
		t.Fatal("PadToCycles ran with a request queued in the ROB")
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
}
