package bench

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/okv"
)

// lockstep is the okv.Backend that takes the KV sweep's schedule away
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
// on this small geometry, the engine sweep's own floor — and the
// workload must exercise every verb. The lockstep schedule and the
// virtual clocks make the ratio a pure function of the seed: the logged
// value is identical at every GOMAXPROCS and under -race.
func TestKVSimThroughputScales(t *testing.T) {
	p := KVParams{
		Blocks:         4096,
		BlockSize:      128,
		MemBytes:       1 << 20,
		SlotsPerBucket: 2,
		MaxValueBytes:  256,
		SeedKeys:       128,
		Ops:            256,
		Workers:        8,
		Seed:           "kv-scaling-test",
	}
	var rows []KVRow
	for _, shards := range []int{1, 4} {
		ls := &lockstep{}
		row, err := runKVOver(shards, p, func(e *engine.Engine) okv.Backend {
			ls.Engine = e
			return ls
		}, ls.drive)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	one, four := rows[0], rows[1]
	if four.SimTput < 2*one.SimTput {
		t.Fatalf("4 shards: %.1f sim ops/s vs 1 shard: %.1f — %.2fx, want >= 2x",
			four.SimTput, one.SimTput, four.SimTput/one.SimTput)
	}
	for _, r := range rows {
		if r.Gets == 0 || r.Sets == 0 || r.Dels == 0 {
			t.Fatalf("shards=%d: workload skipped a verb: %+v", r.Shards, r)
		}
		if want := 2*p.SlotsPerBucket + 2*((p.MaxValueBytes+p.BlockSize-1)/p.BlockSize) + 1; r.BlocksPerOp != want {
			t.Fatalf("shards=%d: blocks/op = %d, want %d", r.Shards, r.BlocksPerOp, want)
		}
	}
	t.Logf("kv sim throughput: 1 shard %.1f ops/s, 4 shards %.1f ops/s (%.2fx)",
		one.SimTput, four.SimTput, four.SimTput/one.SimTput)
}

// BenchmarkKVOps measures wall-clock logical KV operations on a small
// single-shard store (the CI bench smoke runs this once).
func BenchmarkKVOps(b *testing.B) {
	p := KVParams{
		Blocks:         2048,
		BlockSize:      128,
		MemBytes:       512 << 10,
		SlotsPerBucket: 2,
		MaxValueBytes:  128,
		SeedKeys:       32,
		Ops:            64,
		Seed:           "kv-bench-bm",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runKVOne(1, p); err != nil {
			b.Fatal(err)
		}
	}
}
