// Durable storage and crash-safe snapshot/restore for a Client.
//
// With Options.DataDir set, the layout on disk is:
//
//	DataDir/storage.dat   sealed storage-tier slots (device.File)
//	DataDir/storage.gen   shuffle generation marker {started, completed}
//	DataDir/state.snap    sealed control-state snapshot (SaveSnapshotAt)
//
// The storage file is the durable ground truth for storage-resident
// blocks; state.snap recovers everything else — the permutation list
// with its memory-tier leaves, the memory tree's stash and sealed
// device image, and the scheduler/miss-budget counters. The master key is NEVER written:
// the sealer, the snapshot sealer and every RNG stream are re-derived
// from the key the operator supplies at restart.
//
// Epochs and nonces. Each restore boots at a key-derivation epoch past
// every one the directory has used (stored in the snapshot) and salts
// every derived RNG stream with it, so a rebooted instance never
// replays the randomness of a previous boot.
// The sealers' nonce streams also take fresh OS entropy on every boot
// (blockcipher.NewBootRNG), so no GCM nonce repeats under the
// epoch-independent sealing key — not after a restore, and not after a
// fresh Open over a directory an earlier process sealed into with the
// same key, which no persisted epoch can cover.
//
// Consistency. Storage slots are only written during shuffle periods;
// horam brackets each period's writes with the storage.gen marker
// ({G, G-1} before the first write, fsync then {G, G} after the last).
// A snapshot records the generation it was taken at, so a restore can
// decide exactly which images are safe: marker {G, G} equal to the
// snapshot's G resumes cleanly; completed > G means the storage file
// advanced past the checkpoint (writes since the snapshot are lost and
// the control state no longer matches — refused); started > completed
// means the process died inside a shuffle and the storage image itself
// is torn (refused). Refusal is always an explicit error, never a
// silent load of inconsistent state.
package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/horam"
	"repro/internal/simclock"
	"repro/internal/snapshot"
)

// File names inside Options.DataDir.
const (
	StorageFileName   = "storage.dat"
	GenFileName       = "storage.gen"
	StateFileName     = "state.snap"
	StatePrevFileName = "state.snap.prev"
)

func (c *Client) storagePath() string   { return filepath.Join(c.dataDir, StorageFileName) }
func (c *Client) genPath() string       { return filepath.Join(c.dataDir, GenFileName) }
func (c *Client) statePath() string     { return filepath.Join(c.dataDir, StateFileName) }
func (c *Client) statePrevPath() string { return filepath.Join(c.dataDir, StatePrevFileName) }

// wireDurability points cfg's storage tier at the backing file and
// installs the shuffle-generation marker hook.
func (c *Client) wireDurability(cfg *horam.Config, fsyncEvery int) error {
	if err := os.MkdirAll(c.dataDir, 0o700); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	cfg.Storage = func(p device.Profile, slotSize int, slots int64, clk *simclock.Clock) (device.Backend, error) {
		return device.NewFile(device.FileConfig{
			Path:       c.storagePath(),
			Profile:    p,
			SlotSize:   slotSize,
			Slots:      slots,
			Clock:      clk,
			FsyncEvery: fsyncEvery,
		})
	}
	cfg.ShuffleMark = func(gen int64, done bool) error {
		g := snapshot.Gen{Started: gen, Completed: gen}
		if !done {
			g.Completed = gen - 1
		}
		return snapshot.WriteGen(c.genPath(), g)
	}
	return nil
}

// clearStaleState removes leftover snapshots before a fresh Open
// reinitialises the storage file. A control snapshot from a previous
// layout must never be restorable over a re-permuted storage image.
func (c *Client) clearStaleState() error {
	if c.dataDir == "" {
		return nil
	}
	for _, p := range []string{c.statePath(), c.statePrevPath()} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// markFreshLayout makes a fresh Open's initial storage layout durable
// and writes the generation-0 marker.
func (c *Client) markFreshLayout() error {
	if c.dataDir == "" {
		return nil
	}
	if err := c.oram.SyncStorage(); err != nil {
		return err
	}
	return snapshot.WriteGen(c.genPath(), snapshot.Gen{})
}

// Epoch returns the client's key-derivation boot generation: 0 for a
// fresh Open, the epoch RestoreCheckpoint was given after a restore.
func (c *Client) Epoch() uint64 { return c.epoch }

// Checkpoint returns the lifetime number of the instance's last
// checkpoint (the counter survives restores). The engine uses it to
// verify that all shards restored from the SAME checkpoint.
func (c *Client) Checkpoint() uint64 {
	c.oramMu.Lock()
	defer c.oramMu.Unlock()
	return c.checkpoint
}

// Peek reports the live epoch and lifetime checkpoint counter: the
// engine reads them from every shard to check that all shards stand on
// one cut, and to pick the next checkpoint number.
func (c *Client) Peek() (epoch, checkpoint uint64, err error) {
	return c.Epoch(), c.Checkpoint(), nil
}

// SaveSnapshotAt captures the control state at a quiescent point,
// seals it, and atomically replaces DataDir/state.snap — first rotating
// the previous snapshot to state.snap.prev, so one older checkpoint
// stays recoverable (the engine rolls individual shards back to it
// when a crash lands midway through a multi-shard checkpoint). The
// lifetime number must exceed the client's current one, and the
// caller chooses it: the engine quiesces, levels, and drives all
// its shards with ONE number (max across shards + 1) so that a
// transiently failed per-shard save — which leaves that shard's
// counter behind — re-aligns at the very next checkpoint instead of
// skewing the lockstep counters forever.
func (c *Client) SaveSnapshotAt(checkpoint uint64) error {
	c.oramMu.Lock()
	defer c.oramMu.Unlock()
	if checkpoint <= c.checkpoint {
		return fmt.Errorf("core: SaveSnapshotAt(%d): checkpoint numbers must grow (currently at %d)", checkpoint, c.checkpoint)
	}
	return c.saveLocked(checkpoint)
}

// saveLocked writes the snapshot under oramMu at the given lifetime
// checkpoint number. The epoch-persisting re-save a restore performs
// passes the UNCHANGED current number (same Checkpoint, new Epoch): it
// must not advance the lockstep counter the engine compares across
// shards.
func (c *Client) saveLocked(ckpt uint64) error {
	if c.dataDir == "" {
		return errors.New("core: SaveSnapshotAt requires Options.DataDir")
	}
	shard, err := c.oram.CaptureSnapshot()
	if err != nil {
		return err
	}
	shard.Epoch = c.epoch
	shard.Checkpoint = ckpt
	// The snapshot's generation is only meaningful once the storage
	// writes it refers to are durable.
	if err := c.oram.SyncStorage(); err != nil {
		return err
	}
	payload, err := shard.Encode()
	if err != nil {
		return err
	}
	sealed, err := c.snapSealer.Seal(payload)
	if err != nil {
		return err
	}
	// Rotate, then write: if the write never lands, the previous
	// checkpoint is still at state.snap.prev and a restore falls back.
	if err := os.Rename(c.statePath(), c.statePrevPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("core: %w", err)
	}
	if err := snapshot.WriteFile(c.statePath(), sealed); err != nil {
		return err
	}
	c.checkpoint = ckpt
	return nil
}

// loadShard reads and authenticates one snapshot file.
func loadShard(sealer blockcipher.Sealer, path string) (*snapshot.Shard, error) {
	sealed, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := sealer.Open(sealed)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot %s does not authenticate (wrong key or tampered file): %w", filepath.Base(path), err)
	}
	return snapshot.DecodeShard(payload)
}

// readNewest reads and authenticates, without writing anything, the
// newest readable snapshot in opts.DataDir — state.snap, or
// state.snap.prev when the last save died between its rotate and its
// write — and returns the sealer that opened it.
func readNewest(opts Options) (*snapshot.Shard, blockcipher.Sealer, error) {
	if opts.DataDir == "" {
		return nil, nil, errors.New("core: reading a snapshot requires Options.DataDir")
	}
	sealer, err := snapshotSealer(opts, 0) // the key is epoch-independent; opening draws no nonce
	if err != nil {
		return nil, nil, err
	}
	shard, err := loadShard(sealer, filepath.Join(opts.DataDir, StateFileName))
	if errors.Is(err, fs.ErrNotExist) {
		if prev, perr := loadShard(sealer, filepath.Join(opts.DataDir, StatePrevFileName)); !errors.Is(perr, fs.ErrNotExist) {
			shard, err = prev, perr
		}
	}
	return shard, sealer, err
}

// readSnapshot is readNewest pinned to the exact checkpoint want: the
// newest snapshot when it holds that checkpoint, else the rotated
// state.snap.prev. No save is numbered 0, so want 0 finds nothing.
func readSnapshot(opts Options, want uint64) (*snapshot.Shard, error) {
	shard, sealer, err := readNewest(opts)
	if err != nil || shard.Checkpoint == want {
		return shard, err
	}
	prev, err := loadShard(sealer, filepath.Join(opts.DataDir, StatePrevFileName))
	if err != nil {
		return nil, fmt.Errorf("core: no snapshot at checkpoint %d: current is %d and the previous copy is unreadable: %w", want, shard.Checkpoint, err)
	}
	if prev.Checkpoint != want {
		return nil, fmt.Errorf("core: no snapshot at checkpoint %d: have %d and %d", want, shard.Checkpoint, prev.Checkpoint)
	}
	return prev, nil
}

// Peek reports the epoch and checkpoint of the durable directory's
// newest snapshot without building a client or touching the directory.
// The engine peeks every shard to agree on one target checkpoint and
// one fresh boot epoch before restoring any of them.
func Peek(opts Options) (epoch, checkpoint uint64, err error) {
	if opts, err = resolve(opts); err != nil {
		return 0, 0, err
	}
	shard, _, err := readNewest(opts)
	if err != nil {
		return 0, 0, err
	}
	return shard.Epoch, shard.Checkpoint, nil
}

// RestoreCheckpoint resumes a client from the snapshot with the exact
// lifetime checkpoint number — the current one or the rotated previous
// one — booting at the given epoch, which the caller picks past every
// epoch the directory has used. The engine uses it to roll every shard
// onto one consistent checkpoint cut with one shared fresh epoch, even
// when a crash interrupted the checkpoint loop. The options must carry
// the same geometry and key material as the instance that saved; the
// snapshot checksum, sealing tag, geometry echo and shuffle-generation
// marker are all verified before any state is adopted.
func RestoreCheckpoint(opts Options, checkpoint, epoch uint64) (*Client, error) {
	opts, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	shard, err := readSnapshot(opts, checkpoint)
	if err != nil {
		return nil, err
	}

	gen, err := snapshot.ReadGen(filepath.Join(opts.DataDir, GenFileName))
	if err != nil {
		return nil, fmt.Errorf("core: reading shuffle generation marker: %w", err)
	}
	if gen.Started != gen.Completed {
		return nil, fmt.Errorf("core: storage image is torn: crashed during shuffle generation %d (completed %d); the image cannot be resumed", gen.Started, gen.Completed)
	}
	if gen.Completed != shard.ShuffleGen {
		return nil, fmt.Errorf("core: snapshot is stale: taken at shuffle generation %d but storage is at %d; writes since the last checkpoint are unrecoverable", shard.ShuffleGen, gen.Completed)
	}

	c, cfg, err := prepare(opts, epoch)
	if err != nil {
		return nil, err
	}
	c.checkpoint = shard.Checkpoint
	c.oram, err = horam.Restore(cfg, shard)
	if err != nil {
		return nil, err
	}
	// Persist the epoch bump IMMEDIATELY (without advancing the
	// checkpoint counter): if this boot crashed before its first real
	// checkpoint, the next restore would otherwise read the old
	// snapshot, boot at the same epoch, and replay this boot's RNG
	// stream.
	if err := c.saveLocked(c.checkpoint); err != nil {
		c.oram.CloseStorage()
		return nil, fmt.Errorf("core: persisting restored epoch: %w", err)
	}
	return c, nil
}

// Close releases OS resources held by the durable backend (no-op for a
// pure simulation). It does not snapshot; callers that want the latest
// control state persisted call SaveSnapshotAt first.
func (c *Client) Close() error {
	c.oramMu.Lock()
	defer c.oramMu.Unlock()
	return c.oram.CloseStorage()
}
