// Differential tests: the sharded engine against a plain map model.
// The model defines the reference semantics — reads return the last
// value written in submission order (zeros if never written) — and the
// engine must match it at every shard count, across shuffle periods,
// under randomized mixed batches that include duplicate addresses.
package engine

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/blockcipher"
)

// diffGeometry is sized so the per-shard memory trees are tiny: every
// shard crosses several shuffle periods within one run, so period
// boundaries are exercised at every shard count.
const (
	diffBlocks    = 512
	diffBlockSize = 32
	diffMemBytes  = 4 << 10 // 1 KiB per shard at 4 shards
	diffOps       = 1600
)

// runDifferential drives the seeded randomized workload through one
// engine, checking every read against the map model as batches
// complete, and returns the concatenated read results so callers can
// also compare runs against each other.
func runDifferential(t *testing.T, e *Engine, label string) []byte {
	t.Helper()
	// One workload seed for every shard count and shuffle mode: the
	// reference behaviour must not depend on either.
	rng := blockcipher.NewRNGFromString("differential-workload")
	model := make(map[int64]byte)
	var readLog []byte
	done := 0
	for done < diffOps {
		n := 1 + rng.Intn(48)
		if done+n > diffOps {
			n = diffOps - done
		}
		reqs := make([]*Request, n)
		vals := make([]byte, n)
		for i := 0; i < n; i++ {
			addr := rng.Int63n(diffBlocks)
			if rng.Intn(2) == 0 {
				v := byte(rng.Intn(255) + 1)
				vals[i] = v
				reqs[i] = &Request{Op: OpWrite, Addr: addr, Data: bytes.Repeat([]byte{v}, diffBlockSize)}
			} else {
				reqs[i] = &Request{Op: OpRead, Addr: addr}
			}
		}
		if err := e.Batch(reqs); err != nil {
			t.Fatalf("%s: batch at op %d: %v", label, done, err)
		}
		// Check reads against the model with an overlay for
		// writes earlier in the same batch (per-address program
		// order holds inside a batch).
		overlay := make(map[int64]byte, n)
		for i, r := range reqs {
			if r.Op == OpWrite {
				overlay[r.Addr] = vals[i]
				continue
			}
			want := model[r.Addr]
			if v, ok := overlay[r.Addr]; ok {
				want = v
			}
			if !bytes.Equal(r.Result, bytes.Repeat([]byte{want}, diffBlockSize)) {
				t.Fatalf("%s: op %d: read %d returned %v, want fill %d", label, done+i, r.Addr, r.Result[:4], want)
			}
			readLog = append(readLog, r.Result[0])
		}
		for a, v := range overlay {
			model[a] = v
		}
		done += n
	}

	// The geometry must actually have crossed shuffle periods —
	// on every shard, or the period-boundary coverage is
	// imaginary.
	for _, sh := range e.ShardStats() {
		if sh.Shuffles < 2 {
			t.Fatalf("%s: shard %d shuffled only %d times; geometry drifted", label, sh.Shard, sh.Shuffles)
		}
	}
	return readLog
}

// TestDifferentialAgainstMapModel drives the same seeded randomized
// workload (mixed read/write batches of random sizes, duplicate
// addresses allowed) through the engine at shard counts 1, 2 and 4,
// checking every read against the map model as batches complete.
func TestDifferentialAgainstMapModel(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, mode := range shuffleModes {
				e, err := New(Options{
					Blocks:      diffBlocks,
					BlockSize:   diffBlockSize,
					MemoryBytes: diffMemBytes,
					Insecure:    true,
					Seed:        fmt.Sprintf("differential-%d", shards),
					Shards:      shards,
				})
				if err != nil {
					t.Fatal(err)
				}
				runDifferential(t, e, mode.name)
				e.Close()
			}
		})
	}
}

// TestQuickWriteReadRoundTrip is the testing/quick property: for any
// (address, fill) pair, a write followed by a read through the sharded
// engine returns exactly the written block.
func TestQuickWriteReadRoundTrip(t *testing.T) {
	e, err := New(Options{
		Blocks:      256,
		BlockSize:   16,
		MemoryBytes: 2 << 10,
		Insecure:    true,
		Seed:        "quick-roundtrip",
		Shards:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	f := func(rawAddr uint16, fill byte) bool {
		addr := int64(rawAddr) % 256
		payload := bytes.Repeat([]byte{fill}, 16)
		if err := e.Write(addr, payload); err != nil {
			return false
		}
		got, err := e.Read(addr)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
