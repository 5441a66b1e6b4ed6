// Package config is the single definition of the cross-layer H-ORAM
// options. Historically horam.Config, core.Options and engine.Options
// each re-declared the same knobs (geometry, key material, shuffle
// mode, durability paths) and each re-echoed them into manifests with
// its own mismatch check, so the three copies could — and did — drift.
// Now there is one Common struct: core.Options and engine.Options are
// aliases of it, core copies the subset horam.Config consumes into a
// horam.Config literal, and the manifest echo, the restore-time
// mismatch refusal and the schedule rules both layers check
// (ValidateSchedule) live here, in exactly one place.
//
// Construction supports both plain struct literals (the historical
// style, still used throughout the tests) and functional options:
//
//	opts := config.New(
//	        config.WithBlocks(1<<16),
//	        config.WithMemoryBytes(8<<20),
//	        config.WithKey(key),
//	        config.WithShards(4),
//	)
//	eng, err := engine.New(opts)
package config

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/snapshot"
)

// DefaultBlockSize is the paper's block size (1 KB).
const DefaultBlockSize = 1 << 10

// Stage is one phase of the scheduler's group-size schedule: for Frac
// of the period's I/O budget, every cycle groups C in-memory reads
// with the single storage load (paper §4.2: c starts small while the
// cache is cold and grows as it warms).
type Stage struct {
	C    int
	Frac float64
}

// Common is the one definition of the knobs every layer shares. Zero
// values select the paper's defaults where one exists.
type Common struct {
	// Blocks is the logical data set size N in blocks. Required.
	Blocks int64
	// BlockSize defaults to DefaultBlockSize.
	BlockSize int
	// MemoryBytes is the trusted-adjacent memory-tier budget (the
	// paper's n, counted in plaintext block capacity). Required. A
	// sharded engine divides it evenly across shards.
	MemoryBytes int64
	// Key is the 32-byte master key. Required unless Insecure is set.
	Key []byte
	// Insecure disables encryption and integrity (NullSealer) for
	// performance-model runs. Never use it with real data.
	Insecure bool
	// Seed makes all randomness deterministic for replayable
	// experiments; empty derives the seed from the key.
	Seed string
	// Shards is the shard count S of a sharded engine; 0 selects 1.
	// The single-instance core refuses Shards > 1.
	Shards int
	// ClusterShards and ShardIndex identify a process that serves ONE
	// shard of a larger placement (horamd -shard-serve): the process is
	// shard ShardIndex of a ClusterShards-wide cluster, its local
	// geometry derived from the global one by engine.ShardConfig. Both
	// are echoed in the manifest, so a durable shard directory can never
	// be resumed as a different shard (or as a standalone store) without
	// refusal, and the gateway's placement validation can detect a node
	// launched with drifted global options. Zero values mean standalone.
	ClusterShards int
	ShardIndex    int
	// ShuffleRatio enables partial shuffling (§5.3.1); 0 or 1 = full.
	ShuffleRatio float64
	// Stages overrides the scheduler's c schedule; nil selects the
	// paper's {1, 3, 5} over {20%, 13%, 67%}.
	Stages []Stage
	// ConstantTime hardens the controller's trusted-memory structures
	// against a co-located timing adversary: stash lookup/insert/evict,
	// position-map lookups and the okv slot selection become
	// full-length fixed-order scans with crypto/subtle-style selects
	// instead of map/early-exit code. The mode changes only in-memory
	// computation — the sealed device traffic is byte-identical to the
	// default mode — at a substantial CPU cost per access.
	ConstantTime bool
	// DataDir enables the durable storage backend (see core.Options /
	// engine.Options for the per-layer directory layouts). Empty keeps
	// the in-memory simulator.
	DataDir string
	// FsyncEvery picks the storage file's fsync policy: 0 fsyncs only
	// at consistency points (shuffle ends, snapshots), 1 after every
	// write, n > 1 after every n-th write. Ignored without DataDir.
	FsyncEvery int
}

// Option mutates a Common under construction (see New).
type Option func(*Common)

// New builds a Common from functional options.
func New(opts ...Option) Common {
	var c Common
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithBlocks sets the logical data set size N.
func WithBlocks(n int64) Option { return func(c *Common) { c.Blocks = n } }

// WithBlockSize sets the plaintext block size in bytes.
func WithBlockSize(n int) Option { return func(c *Common) { c.BlockSize = n } }

// WithMemoryBytes sets the memory-tier budget.
func WithMemoryBytes(n int64) Option { return func(c *Common) { c.MemoryBytes = n } }

// WithKey sets the 32-byte master key.
func WithKey(key []byte) Option { return func(c *Common) { c.Key = key } }

// WithShards sets the engine shard count.
func WithShards(s int) Option { return func(c *Common) { c.Shards = s } }

// WithConstantTime enables the constant-time controller mode.
func WithConstantTime() Option { return func(c *Common) { c.ConstantTime = true } }

// WithDataDir enables the durable storage backend under dir.
func WithDataDir(dir string) Option { return func(c *Common) { c.DataDir = dir } }

// WithDefaults returns c with the cross-layer defaults filled in:
// BlockSize and (for engine callers) a shard count of 1.
func (c Common) WithDefaults() Common {
	if c.BlockSize == 0 {
		c.BlockSize = DefaultBlockSize
	}
	return c
}

// Validate applies the shared validation rules. prefix names the
// calling layer ("core", "engine") so errors keep their historical
// shape.
func (c Common) Validate(prefix string) error {
	if c.Blocks <= 0 {
		return fmt.Errorf("%s: Blocks must be positive, got %d", prefix, c.Blocks)
	}
	if c.BlockSize < 0 {
		return fmt.Errorf("%s: negative BlockSize", prefix)
	}
	if c.MemoryBytes <= 0 {
		return fmt.Errorf("%s: MemoryBytes must be positive", prefix)
	}
	if c.FsyncEvery < 0 {
		return fmt.Errorf("%s: negative FsyncEvery", prefix)
	}
	if err := ValidateSchedule(prefix, c.ShuffleRatio, c.Stages); err != nil {
		return err
	}
	if !c.Insecure && len(c.Key) != 32 {
		return fmt.Errorf("%s: Key must be 32 bytes, got %d", prefix, len(c.Key))
	}
	if c.ClusterShards < 0 || c.ShardIndex < 0 {
		return fmt.Errorf("%s: negative cluster identity (ClusterShards %d, ShardIndex %d)", prefix, c.ClusterShards, c.ShardIndex)
	}
	if c.ClusterShards == 0 && c.ShardIndex != 0 {
		return fmt.Errorf("%s: ShardIndex %d without ClusterShards", prefix, c.ShardIndex)
	}
	if c.ClusterShards > 0 && c.ShardIndex >= c.ClusterShards {
		return fmt.Errorf("%s: ShardIndex %d out of [0,%d)", prefix, c.ShardIndex, c.ClusterShards)
	}
	return nil
}

// ValidateSchedule checks the shuffle ratio and the stage schedule —
// the rules Common.Validate and horam.Config share. prefix names the
// calling layer, as in Validate.
func ValidateSchedule(prefix string, ratio float64, stages []Stage) error {
	if ratio < 0 || ratio > 1 {
		return fmt.Errorf("%s: ShuffleRatio %v out of [0,1]", prefix, ratio)
	}
	sum := 0.0
	for _, s := range stages {
		if s.C <= 0 || s.Frac < 0 {
			return fmt.Errorf("%s: invalid stage %+v", prefix, s)
		}
		sum += s.Frac
	}
	if stages != nil && math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("%s: stage fractions sum to %v, want 1", prefix, sum)
	}
	return nil
}

// Manifest renders the geometry echo a sharded engine persists at each
// SaveSnapshot — the one place options become durable state. Restore
// validates a loaded manifest against the caller's options with
// CheckManifest, so echo and check can never disagree on the field
// set.
func (c Common) Manifest(epoch uint64) snapshot.Manifest {
	return snapshot.Manifest{
		Blocks:        c.Blocks,
		BlockSize:     c.BlockSize,
		Shards:        c.Shards,
		ClusterShards: c.ClusterShards,
		ShardIndex:    c.ShardIndex,
		MemoryBytes:   c.MemoryBytes,
		ShuffleRatio:  c.ShuffleRatio,
		ConstantTime:  c.ConstantTime,
		Insecure:      c.Insecure,
		Seed:          c.Seed,
		Epoch:         epoch,
	}
}

// CheckManifest refuses a persisted manifest that disagrees with c on
// any geometry dimension — the restore-time mismatch refusal, defined
// once for every layer.
func (c Common) CheckManifest(man *snapshot.Manifest) error {
	if man == nil {
		return errors.New("config: nil manifest")
	}
	return CheckEcho("engine: restore option mismatch", []Field{
		{"Blocks", c.Blocks, man.Blocks},
		{"BlockSize", c.BlockSize, man.BlockSize},
		{"Shards", c.Shards, man.Shards},
		{"ClusterShards", c.ClusterShards, man.ClusterShards},
		{"ShardIndex", c.ShardIndex, man.ShardIndex},
		{"MemoryBytes", c.MemoryBytes, man.MemoryBytes},
		{"ShuffleRatio", c.ShuffleRatio, man.ShuffleRatio},
		{"ConstantTime", c.ConstantTime, man.ConstantTime},
		{"Insecure", c.Insecure, man.Insecure},
		{"Seed", c.Seed, man.Seed},
	})
}

// Field is one echoed geometry dimension compared at restore time.
type Field struct {
	Name      string
	Got, Want any
}

// CheckEcho compares a slice of echoed fields and reports the first
// disagreement in the uniform refusal shape every restore path in this
// repository uses. Comparison is by interface equality, so both sides
// of a field must be the same concrete type.
func CheckEcho(context string, fields []Field) error {
	for _, f := range fields {
		if f.Got != f.Want {
			return fmt.Errorf("%s: %s is %v but the persisted image was built with %v", context, f.Name, f.Got, f.Want)
		}
	}
	return nil
}
