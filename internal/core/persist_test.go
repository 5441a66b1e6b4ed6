package core

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/snapshot"
)

func durableOpts(dir string) Options {
	return Options{
		Blocks:      256,
		BlockSize:   32,
		MemoryBytes: 2 << 10, // 64-slot memory tier: small budget, frequent shuffles
		Key:         testKey(),
		DataDir:     dir,
	}
}

// restoreNewest resumes the newest checkpoint in opts.DataDir at one
// epoch past the one it stored: the policy the engine applies when it
// restores a single shard.
func restoreNewest(opts Options) (*Client, error) {
	epoch, ckpt, err := Peek(opts)
	if err != nil {
		return nil, err
	}
	return RestoreCheckpoint(opts, ckpt, epoch+1)
}

func payloadFor(addr int64, generation int, size int) []byte {
	p := bytes.Repeat([]byte{0}, size)
	copy(p, fmt.Sprintf("blk-%d-gen-%d", addr, generation))
	return p
}

// TestSnapshotRoundTrip is the core durability contract: write a
// workload, snapshot, reopen from disk, and every block — whether it
// was resident in the durable storage tier or in the volatile memory
// tier at snapshot time — reads back with its last written contents.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	model := make(map[int64][]byte)
	rng := blockcipher.NewRNGFromString("core-persist")
	var reqs []*Request
	for i := 0; i < 300; i++ {
		addr := rng.Int63n(opts.Blocks)
		if rng.Intn(3) == 0 {
			data := payloadFor(addr, i, opts.BlockSize)
			model[addr] = data
			reqs = append(reqs, &Request{Op: OpWrite, Addr: addr, Data: data})
		} else {
			reqs = append(reqs, &Request{Op: OpRead, Addr: addr})
		}
	}
	if err := c.Batch(reqs); err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if c.Stats().Shuffles == 0 {
		t.Fatal("workload never crossed a shuffle period; grow it so the test covers post-shuffle restores")
	}
	if err := c.SaveSnapshotAt(c.Checkpoint() + 1); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	preStats := c.Stats()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := restoreNewest(opts)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r.Close()
	if r.Epoch() != 1 {
		t.Fatalf("Epoch after first restore = %d, want 1", r.Epoch())
	}
	if got := r.Stats(); got.Stats != preStats.Stats {
		t.Fatalf("restored counters %+v != saved %+v", got.Stats, preStats.Stats)
	}
	for addr := int64(0); addr < opts.Blocks; addr++ {
		want, ok := model[addr]
		if !ok {
			want = make([]byte, opts.BlockSize)
		}
		got, err := r.Read(addr)
		if err != nil {
			t.Fatalf("Read(%d) after restore: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d after restore = %q, want %q", addr, got, want)
		}
	}
	// The restored instance keeps serving writes (and can snapshot
	// again at a later epoch).
	data := payloadFor(7, 999, opts.BlockSize)
	if err := r.Write(7, data); err != nil {
		t.Fatalf("Write after restore: %v", err)
	}
	if err := r.SaveSnapshotAt(r.Checkpoint() + 1); err != nil {
		t.Fatalf("SaveSnapshot after restore: %v", err)
	}
}

// TestRestoreChain restores twice in a row, checking the epoch keeps
// climbing and the data stays intact.
func TestRestoreChain(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	data := payloadFor(3, 0, opts.BlockSize)
	if err := c.Write(3, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.SaveSnapshotAt(c.Checkpoint() + 1); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	c.Close()

	for epoch := uint64(1); epoch <= 2; epoch++ {
		r, err := restoreNewest(opts)
		if err != nil {
			t.Fatalf("Restore #%d: %v", epoch, err)
		}
		if r.Epoch() != epoch {
			t.Fatalf("Epoch = %d, want %d", r.Epoch(), epoch)
		}
		got, err := r.Read(3)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block 3 = %q, want %q", got, data)
		}
		if err := r.SaveSnapshotAt(r.Checkpoint() + 1); err != nil {
			t.Fatalf("SaveSnapshot: %v", err)
		}
		r.Close()
	}
	// No save is numbered 0: the exact-cut entry must not fall back to
	// the newest snapshot.
	if r, err := RestoreCheckpoint(opts, 0, 9); err == nil {
		r.Close()
		t.Fatal("RestoreCheckpoint at checkpoint 0 succeeded")
	}
}

// TestRestorePersistsEpochImmediately: a boot that crashes before its
// first explicit checkpoint must still never be followed by a boot at
// the same epoch — the epoch bump is made durable inside the restore
// itself, or the crashed boot's nonce/RNG streams would replay.
func TestRestorePersistsEpochImmediately(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := c.SaveSnapshotAt(c.Checkpoint() + 1); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	c.Close()

	r1, err := restoreNewest(opts)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if r1.Epoch() != 1 {
		t.Fatalf("Epoch = %d, want 1", r1.Epoch())
	}
	// Simulate a crash: no SaveSnapshot, no Close.

	r2, err := restoreNewest(opts)
	if err != nil {
		t.Fatalf("second Restore: %v", err)
	}
	defer r2.Close()
	if r2.Epoch() != 2 {
		t.Fatalf("Epoch after crash-restore = %d, want 2 (epoch bump was not persisted)", r2.Epoch())
	}
	r1.Close()
}

// TestStaleSnapshotRefused runs traffic past another shuffle after the
// last snapshot: the storage file advances beyond the checkpoint and
// the restore must refuse rather than resume inconsistent state.
func TestStaleSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := c.SaveSnapshotAt(c.Checkpoint() + 1); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	// Drive traffic until at least one more shuffle completes.
	rng := blockcipher.NewRNGFromString("stale")
	for c.Stats().Shuffles == 0 {
		var reqs []*Request
		for i := 0; i < 64; i++ {
			reqs = append(reqs, &Request{Op: OpRead, Addr: rng.Int63n(opts.Blocks)})
		}
		if err := c.Batch(reqs); err != nil {
			t.Fatalf("Batch: %v", err)
		}
	}
	c.Close()

	_, err = restoreNewest(opts)
	if err == nil {
		t.Fatal("Restore accepted a snapshot older than the storage image")
	}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("err = %v, want a stale-snapshot refusal", err)
	}
}

// TestTornSnapshotRefused truncates and bit-flips state.snap: the
// checksum (and, for flips past it, the authentication tag) must
// reject the file.
func TestTornSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := c.Write(5, payloadFor(5, 0, opts.BlockSize)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.SaveSnapshotAt(c.Checkpoint() + 1); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	c.Close()

	statePath := filepath.Join(dir, StateFileName)
	raw, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	// Truncation.
	if err := os.WriteFile(statePath, raw[:len(raw)/2], 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := restoreNewest(opts); err == nil {
		t.Fatal("Restore accepted a truncated snapshot")
	}

	// Bit flip in the sealed payload.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x10
	if err := os.WriteFile(statePath, flipped, 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := restoreNewest(opts); err == nil {
		t.Fatal("Restore accepted a bit-flipped snapshot")
	}

	// Wrong key: the container verifies but the seal must not.
	if err := os.WriteFile(statePath, raw, 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	bad := opts
	bad.Key = bytes.Repeat([]byte{0xee}, 32)
	if _, err := restoreNewest(bad); err == nil {
		t.Fatal("Restore accepted the snapshot under a different master key")
	}

	// And the pristine bytes still restore.
	r, err := restoreNewest(opts)
	if err != nil {
		t.Fatalf("Restore of pristine snapshot: %v", err)
	}
	defer r.Close()
	got, err := r.Read(5)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, payloadFor(5, 0, opts.BlockSize)) {
		t.Fatal("restored block 5 has wrong contents")
	}
}

// TestTornShuffleRefused forges a mid-shuffle generation marker: the
// restore must report a torn storage image.
func TestTornShuffleRefused(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := c.SaveSnapshotAt(c.Checkpoint() + 1); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	c.Close()
	if err := snapshot.WriteGen(filepath.Join(dir, GenFileName), snapshot.Gen{Started: 1, Completed: 0}); err != nil {
		t.Fatalf("WriteGen: %v", err)
	}
	_, err = restoreNewest(opts)
	if err == nil {
		t.Fatal("Restore accepted a torn (mid-shuffle) storage image")
	}
	if !strings.Contains(err.Error(), "torn") {
		t.Fatalf("err = %v, want a torn-image refusal", err)
	}
}

// TestFreshOpenClearsStaleSnapshot ensures Open never leaves a
// restorable snapshot pointing at a reinitialised storage file.
func TestFreshOpenClearsStaleSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := c.SaveSnapshotAt(c.Checkpoint() + 1); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	c.Close()

	c2, err := Open(opts) // fresh layout over the same dir
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	c2.Close()
	if _, err := os.Stat(filepath.Join(dir, StateFileName)); !os.IsNotExist(err) {
		t.Fatal("fresh Open left the previous state.snap behind")
	}
	if _, err := restoreNewest(opts); err == nil {
		t.Fatal("Restore succeeded against a reinitialised layout with no snapshot")
	}
}

// TestPeekIsReadOnly: probing a shard directory that holds no snapshot
// must neither create it nor blame the rotated copy — the error is the
// missing state.snap itself.
func TestPeekIsReadOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	_, _, err := Peek(durableOpts(dir))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Peek of a missing directory: err = %v, want fs.ErrNotExist", err)
	}
	if !strings.Contains(err.Error(), StateFileName) || strings.Contains(err.Error(), StatePrevFileName) {
		t.Fatalf("Peek error %q names the wrong file, want %s", err, StateFileName)
	}
	if _, serr := os.Stat(dir); !errors.Is(serr, fs.ErrNotExist) {
		t.Fatalf("Peek created the directory it probed (stat err = %v)", serr)
	}
}
