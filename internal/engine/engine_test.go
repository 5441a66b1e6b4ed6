package engine

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func testEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := New(Options{
		Blocks:      512,
		BlockSize:   32,
		MemoryBytes: 16 << 10,
		Insecure:    true,
		Seed:        "engine-test",
		Shards:      shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestOptionValidation(t *testing.T) {
	bad := []Options{
		{Blocks: 0, MemoryBytes: 1 << 10, Insecure: true},
		{Blocks: 64, MemoryBytes: 1 << 10, Insecure: true, Shards: -1},
		{Blocks: 64, MemoryBytes: 1 << 10, Insecure: true, Shards: MaxShards + 1},
		{Blocks: 4, MemoryBytes: 1 << 10, Insecure: true, Shards: 8}, // more shards than blocks
		{Blocks: 64, MemoryBytes: 0, Insecure: true},
		{Blocks: 64, MemoryBytes: 1 << 10, Key: []byte("short")},
	}
	for i, opts := range bad {
		if _, err := New(opts); err == nil {
			t.Errorf("case %d: invalid options %+v accepted", i, opts)
		}
	}
}

// TestPartitionBalancedAndComplete: the PRF partition assigns every
// address to exactly one shard, shard sizes differ by at most one, and
// shard-local addresses are dense in [0, shard blocks).
func TestPartitionBalancedAndComplete(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7} {
		e := testEngine(t, shards)
		counts := make([]int64, shards)
		seen := make([]map[int64]bool, shards)
		for s := range seen {
			seen[s] = make(map[int64]bool)
		}
		for a := int64(0); a < e.Blocks(); a++ {
			s := e.ShardOf(a)
			if s < 0 || s >= shards {
				t.Fatalf("shards=%d: ShardOf(%d) = %d", shards, a, s)
			}
			local := e.local[a]
			if local < 0 || local >= e.Shard(s).Blocks() {
				t.Fatalf("shards=%d: local address %d out of shard %d range [0,%d)",
					shards, local, s, e.Shard(s).Blocks())
			}
			if seen[s][local] {
				t.Fatalf("shards=%d: shard %d local address %d assigned twice", shards, s, local)
			}
			seen[s][local] = true
			counts[s]++
		}
		var min, max int64 = e.Blocks(), 0
		var total int64
		for s, n := range counts {
			if n != e.Shard(s).Blocks() {
				t.Fatalf("shards=%d: shard %d assigned %d addresses but sized for %d", shards, s, n, e.Shard(s).Blocks())
			}
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
			total += n
		}
		if total != e.Blocks() {
			t.Fatalf("shards=%d: %d addresses assigned, want %d", shards, total, e.Blocks())
		}
		if max-min > 1 {
			t.Fatalf("shards=%d: unbalanced partition: min %d, max %d", shards, min, max)
		}
	}
}

// TestPartitionIsKeyed: two engines with different seeds produce
// different address->shard maps (the partition derives from the
// key/seed, not from address arithmetic).
func TestPartitionIsKeyed(t *testing.T) {
	mk := func(seed string) *Engine {
		e, err := New(Options{
			Blocks: 512, BlockSize: 32, MemoryBytes: 16 << 10,
			Insecure: true, Seed: seed, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	a, b := mk("seed-a"), mk("seed-b")
	same := 0
	for addr := int64(0); addr < 512; addr++ {
		if a.ShardOf(addr) == b.ShardOf(addr) {
			same++
		}
	}
	if same == 512 {
		t.Fatal("two different seeds produced the identical shard map")
	}
}

func TestReadWriteRoundTripAcrossShards(t *testing.T) {
	e := testEngine(t, 4)
	payload := func(a int64) []byte { return bytes.Repeat([]byte{byte(a + 1)}, 32) }
	for a := int64(0); a < 64; a++ {
		if err := e.Write(a, payload(a)); err != nil {
			t.Fatalf("Write(%d): %v", a, err)
		}
	}
	for a := int64(0); a < 64; a++ {
		got, err := e.Read(a)
		if err != nil {
			t.Fatalf("Read(%d): %v", a, err)
		}
		if !bytes.Equal(got, payload(a)) {
			t.Fatalf("Read(%d) returned wrong payload", a)
		}
	}
}

// TestBatchOrderAndScatter: one batch mixing writes and reads of the
// same addresses across all shards preserves per-address program
// order, and results land in submission order.
func TestBatchOrderAndScatter(t *testing.T) {
	e := testEngine(t, 4)
	var reqs []*Request
	for a := int64(100); a < 164; a++ {
		reqs = append(reqs,
			&Request{Op: OpWrite, Addr: a, Data: bytes.Repeat([]byte{byte(a)}, 32)},
			&Request{Op: OpRead, Addr: a})
	}
	if err := e.Batch(reqs); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reqs); i += 2 {
		a := reqs[i].Addr
		if !bytes.Equal(reqs[i].Result, bytes.Repeat([]byte{byte(a)}, 32)) {
			t.Fatalf("read of %d did not observe the write queued before it", a)
		}
	}
	// Every shard should have seen work from a 128-request spread.
	for i, sh := range e.ShardStats() {
		if sh.Requests == 0 {
			t.Errorf("shard %d served no requests from a batch spanning the address space", i)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	e := testEngine(t, 2)
	cases := []*Request{
		nil,
		{Op: OpRead, Addr: -1},
		{Op: OpRead, Addr: 512},
		{Op: OpWrite, Addr: 0, Data: []byte("short")},
	}
	for i, r := range cases {
		if err := e.Batch([]*Request{r}); err == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
	// A bad request anywhere in the batch fails before anything runs.
	before := e.Stats().Requests
	good := &Request{Op: OpRead, Addr: 1}
	if err := e.Batch([]*Request{good, {Op: OpRead, Addr: 9999}}); err == nil {
		t.Fatal("batch with out-of-range request accepted")
	}
	if after := e.Stats().Requests; after != before {
		t.Fatalf("rejected batch still executed %d requests", after-before)
	}
}

func TestCloseRejectsAndIsIdempotent(t *testing.T) {
	e := testEngine(t, 2)
	if err := e.Write(0, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := e.Batch([]*Request{{Op: OpRead, Addr: 0}}); err != ErrClosed {
		t.Fatalf("Batch after Close returned %v, want ErrClosed", err)
	}
	e.Close() // must not hang or panic
}

// TestDeterministicAcrossRuns: same seed, same workload, bit-identical
// aggregate counters and virtual time — the reproducibility property
// must survive sharding.
func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Summary {
		e, err := New(Options{
			Blocks: 512, BlockSize: 32, MemoryBytes: 8 << 10,
			Insecure: true, Seed: "determinism", Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var reqs []*Request
		for i := 0; i < 300; i++ {
			reqs = append(reqs, &Request{Op: OpRead, Addr: int64(i*7) % 512})
		}
		if err := e.Batch(reqs); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("same seed diverged:\n%+v\n%+v", s1, s2)
	}
}

// Renders of the engine's registry may overlap — a /metrics scrape
// beside a STATS poll — while traffic runs: they share the collector's
// cache of scheme counters, so under -race this checks its locking.
func TestOverlappingRendersUnderTraffic(t *testing.T) {
	e := testEngine(t, 2)
	reg := obs.NewRegistry()
	e.Observe(reg, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, render := range []func(){
		func() { reg.AppendStats(nil) },
		func() { reg.WritePrometheus(io.Discard) }, //horam:errok io.Discard writes cannot fail
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					render()
				}
			}
		}()
	}
	for a := int64(0); a < 128; a++ {
		if err := e.Write(a, make([]byte, 32)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	// Quiescent now: one more render reads every request back.
	var served int64
	for _, tok := range strings.Fields(string(reg.AppendStats(nil))) {
		if strings.HasPrefix(tok, "horam_shard_requests{") {
			n, err := strconv.ParseInt(tok[strings.LastIndexByte(tok, '=')+1:], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			served += n
		}
	}
	if served != 128 {
		t.Fatalf("shards report %d requests served, want 128", served)
	}
}
