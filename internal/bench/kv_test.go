package bench

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/okv"
)

// kvOp is one logical operation of a worker's measured stream.
type kvOp struct {
	key []byte
	run func(*okv.Store) error
}

func kvKey(i int) []byte { return []byte(fmt.Sprintf("user-%06d", i)) }

// kvStream is one worker's n measured operations, a pure function of
// seed: a 60/30/10 get/set/del mix over keys residents, gets 80/20
// hot-spotted with ~9% ghosts, values of 1..maxValue bytes.
func kvStream(seed string, keys, maxValue, n int) []kvOp {
	rng := blockcipher.NewRNGFromString(seed)
	hot := max(keys/20, 1)
	ops := make([]kvOp, n)
	for i := range ops {
		switch r := rng.Intn(10); {
		case r < 6:
			idx := rng.Intn(keys * 11 / 10) // ~9% ghosts
			if rng.Intn(10) < 8 {
				idx = rng.Intn(hot)
			}
			key := kvKey(idx)
			ops[i] = kvOp{key, func(s *okv.Store) error { _, _, err := s.Get(key); return err }}
		case r < 9:
			key := kvKey(rng.Intn(keys))
			val := bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(maxValue))
			ops[i] = kvOp{key, func(s *okv.Store) error { return s.Set(key, val) }}
		default:
			key := kvKey(rng.Intn(keys))
			ops[i] = kvOp{key, func(s *okv.Store) error { _, err := s.Del(key); return err }}
		}
	}
	return ops
}

// kvSetup opens an insecure engine over o, seeded with seed and the
// shard count, lays a store over a lockstep wrapper of it, and seeds
// the store with keys residents so the measured mix sees mostly hits.
// The caller closes the engine.
func kvSetup(tb testing.TB, o engine.Options, seed string, slots, maxValue, keys int) (*lockstep, *okv.Store) {
	tb.Helper()
	o.Insecure, o.Seed = true, fmt.Sprintf("%s-%d", seed, o.Shards)
	e, err := engine.New(o)
	if err != nil {
		tb.Fatal(err)
	}
	ls := &lockstep{Engine: e}
	s, err := okv.New(okv.Options{Backend: ls, SlotsPerBucket: slots, MaxValueBytes: maxValue, Insecure: true, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	rng := blockcipher.NewRNGFromString(seed + "-wl")
	for i := 0; i < keys; i++ {
		if err := s.Set(kvKey(i), bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(maxValue))); err != nil {
			tb.Fatalf("seed key %d: %v", i, err)
		}
	}
	return ls, s
}

// lockstep is the okv.Backend that takes the KV gate's schedule away
// from the goroutine scheduler. Free-running workers' sim throughput
// depends on which phase batches happen to meet in a shard's queue;
// under lockstep the engine sees one fixed sequence of batches, a pure
// function of the seed:
//
//   - an operation starts only when no operation in flight holds one of
//     its bucket-lock stripes (okv.Store.Stripes), lowest worker first,
//     so no worker ever parks on a lock and lock-acquisition order
//     never decides anything;
//   - every phase submission is held until each operation in flight has
//     either one queued or has finished, and the held set then goes to
//     the engine as ONE batch, in address order (operations in flight
//     share no bucket, so their phases' first addresses are distinct).
//
// Outside drive (the serial seed phase) Batch passes straight through.
type lockstep struct {
	*engine.Engine
	submit chan *heldPhase
}

type heldPhase struct {
	reqs []*core.Request
	done chan error
}

func (l *lockstep) Batch(reqs []*core.Request) error {
	if l.submit == nil {
		return l.Engine.Batch(reqs)
	}
	p := &heldPhase{reqs: reqs, done: make(chan error, 1)}
	l.submit <- p
	return <-p.done
}

func (l *lockstep) drive(s *okv.Store, streams [][]kvOp) error {
	l.submit = make(chan *heldPhase)
	defer func() { l.submit = nil }()
	type finish struct {
		worker int
		err    error
	}
	finished := make(chan finish)
	next := make([]int, len(streams))
	stripes := make(map[int][2]int) // worker with an op in flight -> stripes it holds
	taken := func(i, j int) bool {
		for _, h := range stripes {
			if h[0] == i || h[0] == j || h[1] == i || h[1] == j {
				return true
			}
		}
		return false
	}
	var (
		held     []*heldPhase
		moving   int // ops in flight that have neither queued a phase nor finished
		firstErr error
	)
	for {
		for w, ops := range streams {
			if _, busy := stripes[w]; busy || next[w] == len(ops) {
				continue
			}
			op := ops[next[w]]
			i, j := s.Stripes(op.key)
			if taken(i, j) {
				continue
			}
			stripes[w] = [2]int{i, j}
			next[w]++
			moving++
			go func() { finished <- finish{w, op.run(s)} }()
		}
		if len(stripes) == 0 {
			return firstErr
		}
		for ; moving > 0; moving-- {
			select {
			case p := <-l.submit:
				held = append(held, p)
			case f := <-finished:
				delete(stripes, f.worker)
				if firstErr == nil {
					firstErr = f.err
				}
			}
		}
		if len(held) > 0 {
			sort.Slice(held, func(a, b int) bool { return held[a].reqs[0].Addr < held[b].reqs[0].Addr })
			var batch []*core.Request
			for _, p := range held {
				batch = append(batch, p.reqs...)
			}
			err := l.Engine.Batch(batch)
			for _, p := range held {
				p.done <- err
			}
		}
		moving, held = len(held), held[:0]
	}
}

// TestKVSimThroughputScales is the acceptance gate for the KV layer's
// shard scaling: logical KV throughput on the deployment-model metric
// must keep the engine's shard gain — at least 2x from 1 to 4 shards
// on this small geometry, the engine gate's own floor — and the
// workload must exercise every verb. The lockstep schedule and the
// virtual clocks make the ratio a pure function of the seed: the logged
// value is identical at every GOMAXPROCS and under -race.
func TestKVSimThroughputScales(t *testing.T) {
	const slots, maxValue, keys, ops, workers = 2, 256, 128, 256, 8
	var tput []float64
	for _, shards := range []int{1, 4} {
		o := engine.Options{Blocks: 4096, BlockSize: 128, MemoryBytes: 1 << 20, Shards: shards}
		ls, s := kvSetup(t, o, "kv-scaling-test", slots, maxValue, keys)
		defer ls.Close()
		pre, preSim := s.Stats(), ls.Stats().SimTime
		streams := make([][]kvOp, workers)
		for w := range streams {
			streams[w] = kvStream(fmt.Sprintf("kv-scaling-test-worker-%d", w), keys, maxValue, ops/workers)
		}
		if err := ls.drive(s, streams); err != nil {
			t.Fatal(err)
		}
		// Sim throughput is logical ops per virtual device second over
		// the measured phase alone (the serial seed phase is setup).
		tput = append(tput, ops/(ls.Stats().SimTime-preSim).Seconds())
		if st := s.Stats(); st.Gets == pre.Gets || st.Sets == pre.Sets || st.Dels == pre.Dels {
			t.Fatalf("shards=%d: workload skipped a verb: %+v after %+v", shards, st, pre)
		}
		shape := s.Shape()
		if got, want := shape.LookupReads+shape.ExtentReads+shape.Writes, 2*slots+2*((maxValue+o.BlockSize-1)/o.BlockSize)+1; got != want {
			t.Fatalf("shards=%d: blocks/op = %d, want %d", shards, got, want)
		}
	}
	if tput[1] < 2*tput[0] {
		t.Fatalf("4 shards: %.1f sim ops/s vs 1 shard: %.1f — %.2fx, want >= 2x",
			tput[1], tput[0], tput[1]/tput[0])
	}
	t.Logf("kv sim throughput: 1 shard %.1f ops/s, 4 shards %.1f ops/s (%.2fx)",
		tput[0], tput[1], tput[1]/tput[0])
}

// BenchmarkKVOps measures wall-clock logical KV operations on a small
// single-shard store (the CI bench smoke runs this once).
func BenchmarkKVOps(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		ls, s := kvSetup(b, engine.Options{Blocks: 2048, BlockSize: 128, MemoryBytes: 512 << 10, Shards: 1}, "kv-bench-bm", 2, 128, 32)
		for _, op := range kvStream("kv-bench-bm-worker-0", 32, 128, 64) {
			if err := op.run(s); err != nil {
				b.Fatal(err)
			}
		}
		ls.Close()
	}
}
