// Deterministic tests of the engine's one merge point, the per-shard
// queue. Each parks a shard's scheduler inside a drain
// (internal/engine/enginetest), queues requests behind it, and asserts
// what the next drain carries — grouping is decided by the test, never
// by goroutine scheduling.
package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/obs"
)

func holdOpts(shards int) engine.Options {
	return engine.Options{
		Blocks:      512,
		BlockSize:   32,
		MemoryBytes: 16 << 10,
		Insecure:    true,
		Seed:        "coalesce-test",
		Shards:      shards,
	}
}

// addrOn returns the k-th address the PRF partition deals to shard.
func addrOn(e *engine.Engine, shard, k int) int64 {
	for a := int64(0); a < e.Blocks(); a++ {
		if e.ShardOf(a) == shard {
			if k == 0 {
				return a
			}
			k--
		}
	}
	panic(fmt.Sprintf("shard %d owns fewer than the requested addresses", shard))
}

// park runs one read on shard and returns once its drain is held
// inside the backend. The read's outcome arrives on the returned
// channel after the drain is released.
func park(t *testing.T, e *engine.Engine, h *enginetest.Held, shard int) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := e.Read(addrOn(e, shard, 0))
		done <- err
	}()
	if n := h.Entered(); n != 1 {
		t.Fatalf("parking drain on shard %d carried %d requests, want 1", shard, n)
	}
	return done
}

// TestConcurrentBatchesCoalesce: requests from different callers that
// arrive while a shard's drain is running leave as that shard's NEXT
// drain, all of them together — and the callers' read-your-writes
// holds throughout.
func TestConcurrentBatchesCoalesce(t *testing.T) {
	e, held := enginetest.Hold(t, holdOpts(2))
	e.Observe(obs.NewRegistry(), nil)
	const workers, rounds = 8, 10
	parked := []<-chan error{park(t, e, held[0], 0), park(t, e, held[1], 1)}

	// Each worker's first write queues behind the parked drain of the
	// shard that owns its address.
	queued := make([]int, 2)
	for w := 0; w < workers; w++ {
		queued[e.ShardOf(int64(w*16))]++
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w + 1)}, 32)
			for i := 0; i < rounds; i++ {
				a := int64(w*16 + i)
				if err := e.Write(a, payload); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				got, err := e.Read(a)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("worker %d: read-your-writes violated at %d", w, a)
					return
				}
			}
			errs <- nil
		}(w)
	}
	// No worker can move on before its first write drains, so the queues
	// settle at exactly these depths; nothing new arrives until Open.
	for s := range held {
		enginetest.WaitQueued(t, e, s, queued[s])
	}
	for _, h := range held {
		h.Release()
	}
	for s, h := range held {
		if queued[s] > 0 {
			if n := h.Entered(); n != queued[s] {
				t.Fatalf("shard %d: drain after the held one carried %d requests, want the %d queued behind it", s, n, queued[s])
			}
		}
	}
	for _, h := range held {
		h.Open()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for s, done := range parked {
		if err := <-done; err != nil {
			t.Fatalf("parked read on shard %d: %v", s, err)
		}
	}
	if got, want := e.Stats().Requests, int64(workers*rounds*2+2); got != want {
		t.Fatalf("engine served %d requests, want %d", got, want)
	}
	for s, n := range queued {
		if h := e.DrainSizes(s); n > 0 && h.Bucket(h.BucketOf(float64(n))) == 0 {
			t.Errorf("shard %d: no drain in the size-%d bucket (hist %s)", s, n, h.BucketString())
		}
	}
}

// TestDrainCapSplitsBurst: a burst of MaxDrain+1 queued requests
// leaves as two drains — MaxDrain, then the one left over — and
// per-address program order survives the split.
func TestDrainCapSplitsBurst(t *testing.T) {
	e, held := enginetest.Hold(t, holdOpts(1))
	h := held[0]
	parked := park(t, e, h, 0)

	// write k, read, write k+1, read, …: every read must see the write
	// queued just before it, including the pair the cap separates.
	const n = engine.MaxDrain + 1
	fill := func(i int) []byte { return bytes.Repeat([]byte{byte(i%251 + 1)}, 32) }
	reqs := make([]*engine.Request, n)
	for i := range reqs {
		if i%2 == 0 {
			reqs[i] = &engine.Request{Op: engine.OpWrite, Addr: 7, Data: fill(i)}
		} else {
			reqs[i] = &engine.Request{Op: engine.OpRead, Addr: 7}
		}
	}
	burst := make(chan error, 1)
	go func() { burst <- e.Batch(reqs) }()
	enginetest.WaitQueued(t, e, 0, n)

	h.Release()
	if got := h.Entered(); got != engine.MaxDrain {
		t.Fatalf("first drain of the burst carried %d requests, want the cap %d", got, engine.MaxDrain)
	}
	if depth := e.ShardStats()[0].QueueDepth; depth != 1 {
		t.Fatalf("%d requests left queued behind the capped drain, want 1", depth)
	}
	h.Release()
	if got := h.Entered(); got != 1 {
		t.Fatalf("second drain of the burst carried %d requests, want the 1 left over", got)
	}
	h.Open()
	if err := <-burst; err != nil {
		t.Fatal(err)
	}
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i += 2 {
		if !bytes.Equal(reqs[i].Result, fill(i-1)) {
			t.Fatalf("read %d did not observe the write queued before it", i)
		}
	}
	got, err := e.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(n-1)) {
		t.Fatal("the write past the cap did not land last")
	}
}

// TestLevelingDeferralIsBounded: while one batch stays in flight the
// engine is never quiescent, so "the last batch out levels" alone
// would defer the pass for as long as the load lasts. Every
// LevelEvery-th returning batch levels regardless.
func TestLevelingDeferralIsBounded(t *testing.T) {
	e, held := enginetest.Hold(t, holdOpts(2))
	held[0].Open()
	parked := park(t, e, held[1], 1) // in flight until the end

	for i := 1; i <= engine.LevelEvery; i++ {
		if _, err := e.Read(addrOn(e, 0, i)); err != nil {
			t.Fatal(err)
		}
		st := e.ShardStats()
		if st[0].Cycles == 0 {
			t.Fatal("shard 0 ran no cycles for a real request")
		}
		switch {
		case i < engine.LevelEvery && st[1].PadCycles != 0:
			t.Fatalf("after %d overlapping batches shard 1 was already padded by %d cycles; want no pass before the %dth",
				i, st[1].PadCycles, engine.LevelEvery)
		case i == engine.LevelEvery && (st[1].PadCycles == 0 || st[1].Cycles != st[0].Cycles):
			t.Fatalf("after %d overlapping batches no leveling pass ran: cycles %d vs %d, %d padded",
				i, st[0].Cycles, st[1].Cycles, st[1].PadCycles)
		}
	}

	held[1].Open()
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if st := e.ShardStats(); st[0].Cycles != st[1].Cycles {
		t.Fatalf("quiescent engine is unlevel: %d vs %d cycles", st[0].Cycles, st[1].Cycles)
	}
}

var errShardDown = errors.New("injected shard failure")

// failShard fails every drain, naming itself the way a remote backend
// does.
type failShard struct{ engine.ShardBackend }

func (f failShard) Batch([]*engine.Request) error {
	return fmt.Errorf("shard 0: %w", errShardDown)
}

// TestSharedDrainErrorAttribution is the engine half of per-caller
// error attribution: two callers whose requests leave in ONE failing
// shard drain both get that shard's error, and a third caller whose
// request lives on another shard gets nil and its result.
func TestSharedDrainErrorAttribution(t *testing.T) {
	e, held := enginetest.Hold(t, holdOpts(2))
	held[0].ShardBackend = failShard{held[0].ShardBackend}
	held[1].Open()
	parked := park(t, e, held[0], 0)

	results := make(chan error, 2)
	for k := 1; k <= 2; k++ {
		go func(k int) {
			_, err := e.Read(addrOn(e, 0, k))
			results <- err
		}(k)
	}
	enginetest.WaitQueued(t, e, 0, 2)

	// While shard 0 is held at its failing drain, shard 1 serves.
	want := bytes.Repeat([]byte{0x5a}, 32)
	if err := e.Write(addrOn(e, 1, 0), want); err != nil {
		t.Fatalf("caller on the healthy shard got %v, want nil", err)
	}
	if got, err := e.Read(addrOn(e, 1, 0)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("caller on the healthy shard read %x, %v", got, err)
	}

	held[0].Release()
	if n := held[0].Entered(); n != 2 {
		t.Fatalf("the two callers' requests left in a drain of %d, want one shared drain of 2", n)
	}
	held[0].Release()
	for i := 0; i < 2; i++ {
		if err := <-results; !errors.Is(err, errShardDown) {
			t.Errorf("caller sharing the failed drain got %v, want the shard's error", err)
		}
	}
	if err := <-parked; !errors.Is(err, errShardDown) {
		t.Errorf("parked caller got %v, want the shard's error", err)
	}
	// Failed drains are not counted; the healthy shard's are.
	st := e.ShardStats()
	if st[0].Batches != 0 || st[1].Requests != 2 {
		t.Errorf("drain accounting after the fault: shard 0 %d drains, shard 1 %d requests; want 0 and 2",
			st[0].Batches, st[1].Requests)
	}
}
