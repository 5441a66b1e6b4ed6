// Snapshot round-trip differential tests: write a workload, snapshot,
// rebuild the engine from disk, and the restored engine must agree
// with the map model at every shard count — including blocks that were
// resident in the volatile memory tiers at snapshot time, and after
// restoring twice in a row.
package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/core"
	"repro/internal/snapshot"
)

func persistOpts(dir string, shards int) Options {
	return Options{
		Blocks:      512,
		BlockSize:   32,
		MemoryBytes: 8 << 10,
		Key:         bytes.Repeat([]byte{0x42}, 32),
		Shards:      shards,
		DataDir:     dir,
	}
}

// runWorkload drives seeded mixed batches through the engine, keeping
// the map model in sync, and returns the model.
func runWorkload(t *testing.T, e *Engine, seed string, ops int, model map[int64]byte) {
	t.Helper()
	rng := blockcipher.NewRNGFromString(seed)
	done := 0
	for done < ops {
		n := 1 + rng.Intn(48)
		if done+n > ops {
			n = ops - done
		}
		reqs := make([]*Request, n)
		for i := 0; i < n; i++ {
			addr := rng.Int63n(e.Blocks())
			if rng.Intn(2) == 0 {
				v := byte(rng.Intn(255) + 1)
				model[addr] = v // per-address order holds within a batch
				reqs[i] = &Request{Op: OpWrite, Addr: addr, Data: bytes.Repeat([]byte{v}, e.BlockSize())}
			} else {
				reqs[i] = &Request{Op: OpRead, Addr: addr}
			}
		}
		if err := e.Batch(reqs); err != nil {
			t.Fatalf("batch at op %d: %v", done, err)
		}
		done += n
	}
}

// checkModel reads every address and compares against the model.
func checkModel(t *testing.T, e *Engine, model map[int64]byte, when string) {
	t.Helper()
	for addr := int64(0); addr < e.Blocks(); addr++ {
		want := make([]byte, e.BlockSize())
		if v, ok := model[addr]; ok {
			want = bytes.Repeat([]byte{v}, e.BlockSize())
		}
		got, err := e.Read(addr)
		if err != nil {
			t.Fatalf("%s: Read(%d): %v", when, addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: block %d = %x, want %x", when, addr, got[:4], want[:4])
		}
	}
}

func TestSnapshotRoundTripDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := persistOpts(t.TempDir(), shards)
			e, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			model := make(map[int64]byte)
			runWorkload(t, e, fmt.Sprintf("persist-wl-%d", shards), 800, model)
			if e.Stats().Shuffles == 0 {
				t.Fatal("workload never crossed a shuffle period")
			}
			if err := e.SaveSnapshot(); err != nil {
				t.Fatalf("SaveSnapshot: %v", err)
			}
			preCycles := e.Stats().Cycles
			e.Close()

			// First restart.
			r, err := Restore(opts)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if r.Epoch() != 1 {
				t.Fatalf("Epoch = %d, want 1", r.Epoch())
			}
			if got := r.Stats().Cycles; got != preCycles {
				t.Fatalf("restored cycle count %d != saved %d", got, preCycles)
			}
			// Shard cycle counts restore leveled: the persisted image
			// must not introduce a cross-shard volume channel.
			ss := r.ShardStats()
			for _, sh := range ss[1:] {
				if sh.Cycles != ss[0].Cycles {
					t.Fatalf("restored shard cycle counts unlevel: %d vs %d", sh.Cycles, ss[0].Cycles)
				}
			}
			checkModel(t, r, model, "after first restore")

			// Keep writing, snapshot again, restart again.
			runWorkload(t, r, fmt.Sprintf("persist-wl2-%d", shards), 400, model)
			if err := r.SaveSnapshot(); err != nil {
				t.Fatalf("second SaveSnapshot: %v", err)
			}
			r.Close()

			r2, err := Restore(opts)
			if err != nil {
				t.Fatalf("second Restore: %v", err)
			}
			defer r2.Close()
			if r2.Epoch() != 2 {
				t.Fatalf("Epoch = %d, want 2", r2.Epoch())
			}
			checkModel(t, r2, model, "after second restore")
		})
	}
}

// TestRestoreRefusesMismatchedOptions: the manifest is the geometry
// contract; any drifted option is refused before shard state loads.
func TestRestoreRefusesMismatchedOptions(t *testing.T) {
	dir := t.TempDir()
	opts := persistOpts(dir, 2)
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	e.Close()

	for _, tc := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"shards", func(o *Options) { o.Shards = 4 }},
		{"blocks", func(o *Options) { o.Blocks = 1024 }},
		{"blocksize", func(o *Options) { o.BlockSize = 64 }},
		{"memory", func(o *Options) { o.MemoryBytes = 16 << 10 }},
		// The PRF partition derives from the seed: a drifted seed would
		// silently reroute every address across shards.
		{"seed", func(o *Options) { o.Seed = "drifted" }},
		// Silently resuming a constant-time image without the
		// hardening (or vice versa) would change the deployment's
		// threat model without anyone noticing.
		{"constant-time", func(o *Options) { o.ConstantTime = true }},
	} {
		bad := opts
		tc.mutate(&bad)
		if _, err := Restore(bad); err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Errorf("%s: Restore err = %v, want an option-mismatch refusal", tc.name, err)
		}
	}

	// Wrong master key: the manifest must not authenticate.
	bad := opts
	bad.Key = bytes.Repeat([]byte{0x13}, 32)
	if _, err := Restore(bad); err == nil || !strings.Contains(err.Error(), "authenticate") {
		t.Errorf("wrong key: Restore err = %v, want an authentication refusal", err)
	}

	// The unmodified options still restore.
	r, err := Restore(opts)
	if err != nil {
		t.Fatalf("Restore with matching options: %v", err)
	}
	r.Close()
}

// TestRestoreHealsStaggeredCheckpoint simulates a crash midway through
// a multi-shard checkpoint loop: one shard's snapshot is a checkpoint
// ahead of the others. Restore must roll the ahead shard back to its
// rotated previous snapshot and resume the whole engine on the last
// complete checkpoint cut — not refuse the directory forever.
func TestRestoreHealsStaggeredCheckpoint(t *testing.T) {
	opts := persistOpts(t.TempDir(), 2)
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[int64]byte)
	runWorkload(t, e, "staggered-wl", 300, model)
	if err := e.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	// Crash simulation: the next checkpoint loop replaced shard 0's
	// snapshot and died before reaching shard 1.
	if err := e.Shard(0).SaveSnapshotAt(e.Shard(0).Checkpoint() + 1); err != nil {
		t.Fatalf("shard 0 SaveSnapshot: %v", err)
	}
	e.Close()

	r, err := Restore(opts)
	if err != nil {
		t.Fatalf("Restore of staggered checkpoint: %v", err)
	}
	defer r.Close()
	ss := r.ShardStats()
	for _, sh := range ss[1:] {
		if sh.Cycles != ss[0].Cycles {
			t.Fatalf("restored shard cycle counts unlevel: %d vs %d", sh.Cycles, ss[0].Cycles)
		}
	}
	checkModel(t, r, model, "after staggered-checkpoint restore")

	// And the healed engine checkpoints/restores cleanly again.
	if err := r.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot after heal: %v", err)
	}
}

// TestFailedRestoreLeavesDirectoryRestorable: a restore that fails at
// shard 1 (a torn storage image) must name that shard, close the shard
// it had already opened, and leave the directory restorable once the
// fault is gone — at an epoch past the one shard 0 persisted during
// the failed attempt, so no boot replays that attempt's streams.
func TestFailedRestoreLeavesDirectoryRestorable(t *testing.T) {
	opts := persistOpts(t.TempDir(), 2)
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[int64]byte)
	runWorkload(t, e, "failed-restore-wl", 200, model)
	if err := e.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	e.Close()

	genPath := filepath.Join(shardDir(opts.DataDir, 1), core.GenFileName)
	gen, err := snapshot.ReadGen(genPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteGen(genPath, snapshot.Gen{Started: gen.Completed + 1, Completed: gen.Completed}); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(opts); err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("Restore over a torn shard 1: err = %v, want a refusal naming shard 1", err)
	}
	storage, err := filepath.EvalSymlinks(filepath.Join(shardDir(opts.DataDir, 0), core.StorageFileName))
	if err != nil {
		t.Fatal(err)
	}
	if fds, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Logf("no /proc/self/fd (%v): fd leak check skipped", err)
	} else {
		for _, fd := range fds {
			if link, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); link == storage {
				t.Fatalf("fd %s still holds shard 0's storage file after the failed restore", fd.Name())
			}
		}
	}
	resolved, err := resolveOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planShards(resolved)
	if err != nil {
		t.Fatal(err)
	}
	failedEpoch, _, err := core.Peek(plan.shardOpts[0])
	if err != nil {
		t.Fatal(err)
	}

	if err := snapshot.WriteGen(genPath, gen); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(opts)
	if err != nil {
		t.Fatalf("Restore after the marker is repaired: %v", err)
	}
	defer r.Close()
	if r.Epoch() <= failedEpoch {
		t.Fatalf("restored at epoch %d, not past epoch %d that shard 0 persisted in the failed attempt", r.Epoch(), failedEpoch)
	}
	checkModel(t, r, model, "after a failed then repaired restore")
}

// TestSaveSnapshotRealignsLaggingCounter: a shard whose previous save
// transiently failed lags its lifetime checkpoint counter; the next
// engine checkpoint must drive every shard to ONE shared number (max
// across shards + 1) so the counters re-align instead of staying
// skewed forever and poisoning restore-time snapshot pairing.
func TestSaveSnapshotRealignsLaggingCounter(t *testing.T) {
	opts := persistOpts(t.TempDir(), 2)
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	// Simulate a transiently failed save at shard 1 during the next
	// checkpoint: only shard 0 advanced.
	if err := e.Shard(0).SaveSnapshotAt(e.Shard(0).Checkpoint() + 1); err != nil {
		t.Fatalf("shard 0 SaveSnapshot: %v", err)
	}
	if a, b := e.Shard(0).Checkpoint(), e.Shard(1).Checkpoint(); a == b {
		t.Fatalf("setup failed: counters already equal (%d)", a)
	}
	if err := e.SaveSnapshot(); err != nil {
		t.Fatalf("realigning SaveSnapshot: %v", err)
	}
	if a, b := e.Shard(0).Checkpoint(), e.Shard(1).Checkpoint(); a != b {
		t.Fatalf("counters still skewed after engine checkpoint: %d vs %d", a, b)
	}
}

// TestSaveSnapshotConcurrentWithTraffic checkpoints while batches are
// in flight: the quiesce must interleave cleanly with traffic and the
// final image must restore to the model.
func TestSaveSnapshotConcurrentWithTraffic(t *testing.T) {
	opts := persistOpts(t.TempDir(), 2)
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[int64]byte)
	rng := blockcipher.NewRNGFromString("concurrent-ckpt")
	for round := 0; round < 6; round++ {
		reqs := make([]*Request, 40)
		for i := range reqs {
			addr := rng.Int63n(opts.Blocks)
			v := byte(rng.Intn(255) + 1)
			model[addr] = v
			reqs[i] = &Request{Op: OpWrite, Addr: addr, Data: bytes.Repeat([]byte{v}, opts.BlockSize)}
		}
		done := make(chan error, 1)
		go func() { done <- e.Batch(reqs) }()
		if err := e.SaveSnapshot(); err != nil {
			t.Fatalf("SaveSnapshot round %d: %v", round, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("Batch round %d: %v", round, err)
		}
	}
	// A final checkpoint after the last batch makes the image current.
	if err := e.SaveSnapshot(); err != nil {
		t.Fatalf("final SaveSnapshot: %v", err)
	}
	e.Close()

	r, err := Restore(opts)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r.Close()
	checkModel(t, r, model, "after concurrent-checkpoint run")
}
