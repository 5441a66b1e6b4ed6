// Tests for the deamortized shuffle pipeline and its failure paths:
// the absolute per-period traffic, quantum and per-cycle cost oracles,
// quiesce-finishes-the-shuffle, sticky poisoning after a mid-flight
// shuffle failure, and the ROB-abandonment memory fix.
package horam

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/device"
)

// faultSealer wraps a sealer with an injectable failure: when gate
// returns true, Seal fails. Open is untouched, so already-sealed state
// keeps reading back.
type faultSealer struct {
	blockcipher.Sealer
	gate func() bool
}

var errInjectedSeal = errors.New("injected seal fault")

func (f *faultSealer) Seal(pt []byte) ([]byte, error) {
	if f.gate != nil && f.gate() {
		return nil, errInjectedSeal
	}
	return f.Sealer.Seal(pt)
}

// TestIncrementalMatchesMonolithic pins the deamortized shuffle
// pipeline to absolute oracles taken from the instance's own geometry.
// (The name predates the pipeline being the only shuffle: each check
// below replaces a comparison against the paper's stop-the-world pass.)
// One seeded workload must read back the map model's bytes, and every
// period must present the same shuffle bus traffic — one sequential
// read of every memory-tier device slot (the reseal is a raw write off
// the bus), one sequential read and rewrite of every partition — run
// as exactly one evict quantum plus one quantum per partition. The
// deamortization bound: no single cycle may cost more than a third of
// one period's shuffle time, which a pass that runs the whole period
// inside one cycle cannot meet.
func TestIncrementalMatchesMonolithic(t *testing.T) {
	const blocks, blockSize, memSlots = 144, 16, 60
	o := build(t, blocks, blockSize, memSlots)
	var memEvents, storEvents int64
	o.Mem().SetHook(func(_ string, _ device.Op, _ int64) {
		if o.InShuffle() {
			memEvents++
		}
	})
	o.Stor().SetHook(func(_ string, _ device.Op, _ int64) {
		if o.InShuffle() {
			storEvents++
		}
	})

	rng := blockcipher.NewRNGFromString("mode-equivalence")
	model := make(map[int64][]byte)
	for i := 0; i < 400; i++ {
		a := rng.Int63n(blocks)
		if rng.Intn(2) == 0 {
			data := fill(blockSize, byte(rng.Intn(256)))
			if err := o.Write(a, data); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			model[a] = data
			continue
		}
		got, err := o.Read(a)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		want, ok := model[a]
		if !ok {
			want = make([]byte, blockSize) // never written: zeros
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d: read %d returned %x, want %x", i, a, got, want)
		}
	}
	// Close out the last in-flight period so the traffic counts cover
	// whole periods only.
	if err := o.FinishShuffle(); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Shuffles < 2 {
		t.Fatalf("only %d shuffles; geometry drifted", st.Shuffles)
	}
	if want := st.Shuffles * o.Mem().Slots(); memEvents != want {
		t.Fatalf("memory-tier shuffle events %d over %d periods, want %d (%d device slots per period)",
			memEvents, st.Shuffles, want, o.Mem().Slots())
	}
	if want := st.Shuffles * 2 * o.Partitions() * o.PartitionSlots(); storEvents != want {
		t.Fatalf("storage shuffle events %d over %d periods, want %d (read + rewrite of %d partitions × %d slots per period)",
			storEvents, st.Shuffles, want, o.Partitions(), o.PartitionSlots())
	}
	if want := st.Shuffles * (1 + o.Partitions()); st.ShuffleQuanta != want {
		t.Fatalf("%d quanta over %d periods, want %d (one evict + %d partition rewrites per period)",
			st.ShuffleQuanta, st.Shuffles, want, o.Partitions())
	}
	if perPeriod := o.ShuffleTime() / time.Duration(st.Shuffles); 3*st.MaxCycleTime > perPeriod {
		t.Fatalf("max cycle cost %v exceeds a third of a period's shuffle time %v — deamortization bound not met",
			st.MaxCycleTime, perPeriod)
	}
	t.Logf("%d periods: %d memory-tier and %d storage events, %d quanta; max cycle %v, shuffle time %v per period",
		st.Shuffles, memEvents, storEvents, st.ShuffleQuanta, st.MaxCycleTime, o.ShuffleTime()/time.Duration(st.Shuffles))
}

// driveToPendingShuffle issues single-request drains until one returns
// with the shuffle state machine still holding quanta.
func driveToPendingShuffle(t *testing.T, o *ORAM) {
	t.Helper()
	for i := 0; i < 4000; i++ {
		if _, err := o.Read(int64(i) % o.cfg.Blocks); err != nil {
			t.Fatal(err)
		}
		if o.ShufflePending() {
			return
		}
	}
	t.Fatal("never went quiescent mid-shuffle; geometry drifted")
}

// TestRequestsServedWhileShufflePending pins the deamortization down
// at the request level: a drain that engages the shuffle state machine
// completes its requests and returns while quanta are still pending —
// it does not stall behind the rest of the period — and the leftover
// quanta ride along with later cycles until the period closes.
func TestRequestsServedWhileShufflePending(t *testing.T) {
	o := build(t, 144, 16, 60)
	driveToPendingShuffle(t, o)
	before := o.Stats()
	// Serve more requests while the shuffle is still in flight.
	if _, err := o.Read(7); err != nil {
		t.Fatal(err)
	}
	if got := o.Stats().Requests; got != before.Requests+1 {
		t.Fatalf("requests %d -> %d while shuffle pending; service stalled", before.Requests, got)
	}
	// The machine eventually drains: pad cycles advance quanta too.
	for i := 0; o.ShufflePending(); i++ {
		if i > 1000 {
			t.Fatal("shuffle never completed under padding")
		}
		if _, err := o.PadToCycles(o.Stats().Cycles + 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.Stats().Shuffles; got != before.Shuffles+1 {
		t.Fatalf("Shuffles = %d, want %d after the pending period closed", got, before.Shuffles+1)
	}
}

// TestSnapshotFinishesInFlightShuffle asserts the quiesce contract: a
// snapshot taken while quanta are pending first drives the period to
// completion, so the image sits at a period boundary with the
// generation marker protocol intact.
func TestSnapshotFinishesInFlightShuffle(t *testing.T) {
	o := build(t, 144, 16, 60)
	driveToPendingShuffle(t, o)
	genBefore := o.ShuffleGen()
	snap, err := o.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if o.ShufflePending() {
		t.Fatal("shuffle still pending after CaptureSnapshot")
	}
	if o.ShuffleGen() != genBefore+1 {
		t.Fatalf("ShuffleGen = %d after capture, want %d (the pending period must have completed)", o.ShuffleGen(), genBefore+1)
	}
	if snap.ShuffleGen != o.ShuffleGen() {
		t.Fatalf("snapshot records generation %d, instance is at %d", snap.ShuffleGen, o.ShuffleGen())
	}
}

// buildFaulty constructs an instance whose sealer fails mid-shuffle,
// after the tree reseal and at least one full partition rewrite — the
// exact partial-rewrite state the sticky-poison fix is about.
func buildFaulty(t *testing.T) *ORAM {
	t.Helper()
	cfg := testConfig(64, 16, 28)
	armed := false
	sealsInShuffle := 0
	var o *ORAM
	fs := &faultSealer{Sealer: cfg.Sealer, gate: func() bool {
		if !armed || o == nil || !o.InShuffle() {
			return false
		}
		sealsInShuffle++
		// Tree slots (28) resealed by the evict, one full partition (8
		// slots) written, then fail midway through the second.
		return sealsInShuffle > 28+8+3
	}}
	cfg.Sealer = fs
	var err error
	o, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	armed = true
	return o
}

// TestShuffleFailurePoisonsInstance is the regression for the silent
// mid-flight retry: a failed shuffle used to return with partitions
// partially rewritten, the cursor advanced and the miss budget still
// exhausted, so the very next cycle re-entered the shuffle over
// inconsistent state. Now the failure is sticky — the instance is
// poisoned and every subsequent operation reports it.
func TestShuffleFailurePoisonsInstance(t *testing.T) {
	o := buildFaulty(t)
	var failure error
	for i := 0; i < 4000 && failure == nil; i++ {
		failure = o.Write(int64(i)%64, fill(16, byte(i)))
	}
	if failure == nil {
		t.Fatal("injected seal fault never fired")
	}
	if !errors.Is(failure, errInjectedSeal) {
		t.Fatalf("failure is %v, want the injected fault", failure)
	}
	if errors.Is(failure, ErrPoisoned) {
		t.Fatal("the triggering operation itself should report the root cause, not the poison wrapper")
	}

	assertPoisoned := func(op string, err error) {
		if !errors.Is(err, ErrPoisoned) {
			t.Fatalf("%s after failed shuffle returned %v, want ErrPoisoned", op, err)
		}
	}
	_, err := o.Read(1)
	assertPoisoned("Read", err)
	assertPoisoned("Write", o.Write(1, fill(16, 9)))
	assertPoisoned("Submit", o.Submit(&Request{Op: OpRead, Addr: 1}))
	assertPoisoned("Drain", o.Drain())
	_, err = o.PadToCycles(o.Stats().Cycles + 1)
	assertPoisoned("PadToCycles", err)
	_, err = o.CaptureSnapshot()
	assertPoisoned("CaptureSnapshot", err)
	assertPoisoned("FinishShuffle", o.FinishShuffle())
	// The shuffle must NOT have been silently retried or completed.
	if o.Stats().Shuffles != 0 {
		t.Fatalf("%d shuffles completed after the mid-flight failure", o.Stats().Shuffles)
	}
}

// TestDrainAbandonReleasesRequests is the regression for the ROB leak:
// a failed drain truncated the ROB with o.rob[:0], which kept the
// abandoned *Request pointers — and their copied write payloads — live
// in the backing array. The slots are nilled now, so the requests
// become collectable as soon as the callers drop them.
func TestDrainAbandonReleasesRequests(t *testing.T) {
	const n = 8
	cfg := testConfig(64, 16, 28)
	fail := false
	fs := &faultSealer{Sealer: cfg.Sealer, gate: func() bool { return fail }}
	cfg.Sealer = fs
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	collected := make(chan struct{}, n)
	func() {
		reqs := make([]*Request, n)
		for i := range reqs {
			reqs[i] = &Request{Op: OpWrite, Addr: int64(i), Data: fill(16, byte(i))}
			runtime.SetFinalizer(reqs[i], func(*Request) { collected <- struct{}{} })
		}
		if err := o.Submit(reqs...); err != nil {
			t.Fatal(err)
		}
		fail = true // every path write-back now fails: the drain aborts
		if err := o.Drain(); err == nil {
			t.Fatal("drain succeeded despite the injected fault")
		}
	}()
	if o.Pending() != 0 {
		t.Fatalf("Pending() = %d after a failed drain", o.Pending())
	}

	deadline := time.Now().Add(10 * time.Second)
	got := 0
	for got < n && time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-collected:
			got++
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if got < n {
		t.Fatalf("only %d/%d abandoned requests were collected; the ROB backing array still pins them", got, n)
	}
	runtime.KeepAlive(o)
}
