// Package core is the in-process shard an engine runs: key schedule,
// durable directory, checkpoint and restore at a caller-chosen cut. A
// Client is one H-ORAM instance (internal/horam) behind a mutex. It
// fans one 32-byte master key out to the sealer, the snapshot sealer
// and the randomness, picks the paper's defaults for every knob, and
// implements internal/engine's ShardBackend, so the engine drives it
// directly. Programs open an engine (engine.New, Shards 0 or 1 for one
// instance); the engine opens, restores and checkpoints its clients.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/config"
	"repro/internal/horam"
	"repro/internal/obs"
)

// DefaultBlockSize is the paper's block size (1 KB).
const DefaultBlockSize = config.DefaultBlockSize

// Options configures a Client. It is the shared config.Common option
// set (see internal/config for every field and the functional-option
// constructors); zero values select the paper's defaults where one
// exists. Notes specific to this layer:
//
//   - Shards must be 0 or 1: a Client is one H-ORAM instance; the
//     sharded front end is internal/engine.
//   - DataDir enables the durable storage backend: the storage tier
//     becomes a preallocated device.File at DataDir/storage.dat, a
//     shuffle-generation marker is maintained at DataDir/storage.gen,
//     and SaveSnapshotAt persists the control state at
//     DataDir/state.snap. Open always REINITIALISES the storage file
//     (and removes any stale state.snap); resuming a previous image
//     goes through RestoreCheckpoint. Empty keeps the simulator.
type Options = config.Common

// Client is an H-ORAM session. All methods are safe for concurrent
// use: the engine itself is single-threaded (the secure scheduler
// must observe one serial request stream), so the client serialises
// every engine entry on an internal mutex. Callers who want their
// requests grouped into one scheduler batch submit them together
// through Batch; requests from different callers are merged one level
// up, in internal/engine's per-shard queue.
type Client struct {
	oram      *horam.ORAM
	blockSize int
	blocks    int64

	dataDir    string // "" = in-memory simulation, nothing persisted
	epoch      uint64 // key-derivation boot generation (see persist.go)
	checkpoint uint64 // lifetime number of the last checkpoint
	snapSealer blockcipher.Sealer

	oramMu sync.Mutex // serialises all oram entries
}

// resolve fills defaults and validates the options through the shared
// config rules, plus the one core-specific restriction: no sharding.
func resolve(opts Options) (Options, error) {
	opts = opts.WithDefaults()
	if err := opts.Validate("core"); err != nil {
		return opts, err
	}
	if opts.Shards > 1 {
		return opts, fmt.Errorf("core: Shards %d not supported by a single-instance client (use internal/engine)", opts.Shards)
	}
	return opts, nil
}

// Open validates the options and constructs a fresh client. With
// DataDir set, the durable storage file is (re)initialised from
// scratch — resuming a persisted image goes through RestoreCheckpoint.
func Open(opts Options) (*Client, error) {
	opts, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	c, cfg, err := prepare(opts, 0)
	if err != nil {
		return nil, err
	}
	if err := c.clearStaleState(); err != nil {
		return nil, err
	}
	c.oram, err = horam.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.markFreshLayout(); err != nil {
		c.oram.CloseStorage()
		return nil, err
	}
	return c, nil
}

// prepare derives the epoch-salted key material and builds the horam
// configuration plus a client shell. Open uses epoch 0;
// RestoreCheckpoint uses the epoch its caller picked past every
// persisted one, so the RNG streams never replay (see the epoch
// discussion in persist.go).
func prepare(opts Options, epoch uint64) (*Client, horam.Config, error) {
	seed := opts.Seed
	var sealer blockcipher.Sealer = blockcipher.NullSealer{}
	if opts.Insecure {
		if seed == "" {
			seed = "core-insecure"
		}
	} else {
		prf, err := blockcipher.NewPRF(opts.Key)
		if err != nil {
			return nil, horam.Config{}, err
		}
		if seed == "" {
			seed = string(prf.Derive("client-seed", 32))
		}
		rng := nonceRNG(opts)(prf.Derive(fmt.Sprintf("sealer-rng-epoch-%d", epoch), 32))
		if sealer, err = blockcipher.NewAESSealer(opts.Key, rng); err != nil {
			return nil, horam.Config{}, err
		}
	}
	snapSealer, err := snapshotSealer(opts, epoch)
	if err != nil {
		return nil, horam.Config{}, err
	}
	if epoch > 0 {
		seed = fmt.Sprintf("%s/epoch-%d", seed, epoch)
	}

	c := &Client{
		blockSize:  opts.BlockSize,
		blocks:     opts.Blocks,
		dataDir:    opts.DataDir,
		epoch:      epoch,
		snapSealer: snapSealer,
	}
	cfg := horam.Config{
		Blocks:       opts.Blocks,
		BlockSize:    opts.BlockSize,
		MemoryBytes:  opts.MemoryBytes,
		ShuffleRatio: opts.ShuffleRatio,
		Stages:       opts.Stages,
		ConstantTime: opts.ConstantTime,
		Sealer:       sealer,
		RNG:          blockcipher.NewRNGFromString(seed),
	}
	if opts.DataDir != "" {
		if err := c.wireDurability(&cfg, opts.FsyncEvery); err != nil {
			return nil, horam.Config{}, err
		}
	}
	return c, cfg, nil
}

// nonceRNG picks the constructor of the sealers' nonce streams. The
// sealing KEY is epoch-independent (pre-crash ciphertext must open
// after a restore), so a durable client's nonce streams take fresh
// entropy on every boot, fresh Open included; without a DataDir
// nothing sealed outlives the process and the streams stay a pure
// function of the key.
func nonceRNG(opts Options) func(seed []byte) *blockcipher.RNG {
	if opts.DataDir != "" {
		return blockcipher.NewBootRNG
	}
	return blockcipher.NewRNG
}

// snapshotSealer builds the sealer of the shard's control snapshots.
// Its key is epoch-independent, so a snapshot from any boot opens;
// only the nonce stream is salted with the boot epoch.
func snapshotSealer(opts Options, epoch uint64) (blockcipher.Sealer, error) {
	if opts.Insecure {
		return blockcipher.NullSealer{}, nil
	}
	prf, err := blockcipher.NewPRF(opts.Key)
	if err != nil {
		return nil, err
	}
	rng := nonceRNG(opts)(prf.Derive(fmt.Sprintf("snapshot-nonce-epoch-%d", epoch), 32))
	return blockcipher.NewAESSealer(prf.Derive("snapshot-key", 32), rng)
}

// BlockSize returns the client's block size in bytes.
func (c *Client) BlockSize() int { return c.blockSize }

// Blocks returns the logical data set size N in blocks.
func (c *Client) Blocks() int64 { return c.blocks }

// Read returns the BlockSize-byte contents of addr (zeros if the block
// was never written).
func (c *Client) Read(addr int64) ([]byte, error) {
	c.oramMu.Lock()
	defer c.oramMu.Unlock()
	return c.oram.Read(addr)
}

// Write stores data (exactly BlockSize bytes) at addr.
func (c *Client) Write(addr int64, data []byte) error {
	c.oramMu.Lock()
	defer c.oramMu.Unlock()
	return c.oram.Write(addr, data)
}

// Request mirrors horam.Request for batch submission.
type Request = horam.Request

// Op mirrors horam.Op for batch submission.
type Op = horam.Op

// Request operations, re-exported so batch callers need not import
// the engine package.
const (
	OpRead  = horam.OpRead
	OpWrite = horam.OpWrite
)

// Batch queues the requests and runs the scheduler until all of them
// complete. Results land in each request's Result field, in submission
// order. A malformed request anywhere in the slice fails the whole
// batch before any request runs. Batching is the intended operating
// mode: a full reorder buffer lets the secure scheduler group hits and
// misses with minimal dummy padding. A Client does not merge
// requests from different callers (concurrent Batch calls serialise);
// that happens in internal/engine's per-shard queue.
func (c *Client) Batch(reqs []*Request) error {
	c.oramMu.Lock()
	defer c.oramMu.Unlock()
	return c.oram.RunBatch(reqs)
}

// Stats is a snapshot of the client's scheme counters and timing.
type Stats struct {
	horam.Stats
	SimulatedTime time.Duration
	AccessTime    time.Duration
	ShuffleTime   time.Duration
}

// Stats returns the counters accumulated so far.
func (c *Client) Stats() Stats {
	c.oramMu.Lock()
	defer c.oramMu.Unlock()
	return Stats{
		Stats:         c.oram.Stats(),
		SimulatedTime: c.oram.Clock().Now(),
		AccessTime:    c.oram.AccessTime(),
		ShuffleTime:   c.oram.ShuffleTime(),
	}
}

// Cycles returns the cumulative scheduler cycle count, the quantity
// the engine levels across shards. It cannot fail in process.
func (c *Client) Cycles() (int64, error) { return c.Stats().Cycles, nil }

// PadToCycles runs dummy scheduler cycles — bus-indistinguishable
// from real ones — until the client's cumulative cycle count reaches
// target, and returns how many it ran (zero if the count was already
// there). internal/engine calls it at batch boundaries to equalise
// cycle counts across shards.
func (c *Client) PadToCycles(target int64) (int64, error) {
	c.oramMu.Lock()
	defer c.oramMu.Unlock()
	return c.oram.PadToCycles(target)
}

// Engine exposes the underlying H-ORAM instance for experiment
// harnesses that need device stats or adversary hooks. Application
// code should not need it. The engine is not synchronised: do not
// drive it while other goroutines use the client.
func (c *Client) Engine() *horam.ORAM { return c.oram }

// SetObs wires the request-path tracer and the shuffle-quantum
// latency histogram through to the underlying H-ORAM instance (see
// horam.ORAM.SetObs). internal/engine calls it at Observe time.
func (c *Client) SetObs(tr *obs.Tracer, tid int, quantum *obs.Histogram) {
	c.oramMu.Lock()
	defer c.oramMu.Unlock()
	c.oram.SetObs(tr, tid, quantum)
}
