// Package engine shards one logical H-ORAM block store across S
// independent H-ORAM instances so scheduler cycles scale with cores.
// A single instance serialises every cycle on one goroutine (the
// secure scheduler must observe one serial request stream), which
// caps throughput at one core no matter how well the serving layer
// batches. The engine keeps that invariant *per shard* while letting
// S shards cycle concurrently:
//
//   - the block address space is PRF-partitioned: a keyed pseudorandom
//     permutation of [0,N) is dealt round-robin into S shards, so the
//     shard of an address is secret and the shards are balanced to
//     within one block;
//   - each shard is a ShardBackend — a full H-ORAM stack. In-process
//     shards (New/Restore) own scheduler, reorder buffer, memory tree,
//     storage partitions, devices and clocks, built from a per-shard
//     key derived from the master key (independent sealer nonce
//     streams, independent randomness). Remote shards (NewWithBackends,
//     assembled by internal/cluster) are horamd -shard-serve nodes
//     reached over TCP; ShardConfig derives the options such a node
//     must run with.
//   - each shard owns one scheduler goroutine. Batch scatters a batch
//     into the shards' queues, kicks their schedulers, and gathers:
//     every future resolves before Batch returns, and results land in
//     the caller's requests in submission order.
//
// # Security
//
// Per shard the paper's argument is unchanged: the shard's bus still
// shows one storage load overlapped with exactly c memory paths per
// cycle, whatever the hit/miss mix (§4.2) — the trace tests in this
// package assert it at every shard count.
//
// Sharding on its own, however, would open a channel a single
// instance does not have: shards are separate device stacks, so a
// device-level adversary sees how many cycles each shard runs, and
// with a fixed (even if secret) address→shard map that per-shard
// traffic volume reflects the workload's address collision structure
// — a hot single address drives exactly one shard, a uniform scan
// drives all of them evenly. The PRF partition does NOT fix this:
// logical addresses are exactly what an ORAM must hide, so "which
// shard is busy" must not depend on them.
//
// The engine therefore levels cycle counts at batch boundaries: when
// the last batch in flight resolves, every shard is padded with dummy
// scheduler cycles (horam.PadToCycles — one random prefetch load plus
// c dummy memory paths, bus-indistinguishable from real cycles,
// consuming miss budget and triggering shuffles like real cycles)
// until all shards reach the maximum cumulative cycle count. Batches
// overlapping in flight share one leveling pass — the final batch
// observes the true maximum, and padding only ever raises a shard
// toward it, so per-batch passes would add nothing but extra dummy
// traffic; under load that never lets the engine go quiescent, every
// levelEvery-th returning batch runs a pass as well, so the deferral
// is bounded by batch count. Whenever the engine is quiescent every
// shard has run the identical number of cycles, so the adversary
// observes S identical traffic volumes —
// exactly the information (total cycle count) a single unsharded
// instance already reveals, and nothing about how requests collided
// across shards. This invariant is GLOBAL, not per-process: with
// remote backends the counts are read and the stragglers padded over
// the wire (CYCLES/PAD), so a quiescent multi-node cluster shows S
// equal per-shard cycle counts exactly as a single process does. The
// obliviousness tests in this package and in internal/cluster assert
// both properties: per-cycle bus shape per shard, and cross-shard
// cycle equality under adversarially skewed workloads.
//
// Residual channel: leveling equalises counts at batch boundaries,
// not the real-time interleaving of per-shard device activity while a
// batch is in flight. The simulator's threat model (recorded
// per-device traces, virtual clocks) has no cross-shard wall-clock
// ordering; a deployment with S physically separate devices should
// drive shards in lockstep cycles if that timing channel matters.
package engine

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// MaxShards bounds the shard count; one goroutine and one simulated
// device pair per shard make larger values a configuration error.
const MaxShards = 256

// ErrClosed is returned by Batch/Read/Write after Close.
var ErrClosed = errors.New("engine: closed")

// Options configures a sharded engine. It is the shared config.Common
// option set (see internal/config for every field and the
// functional-option constructors); the knobs describe the WHOLE
// logical store and the engine splits them across shards. Notes
// specific to this layer:
//
//   - Shards is the shard count S (0 selects 1, bounded by MaxShards);
//     MemoryBytes is divided evenly across shards, and per-shard keys
//     and seeds are derived from Key/Seed.
//   - DataDir enables the durable storage backend: shard i keeps its
//     storage file, generation marker and control snapshot under
//     DataDir/shard-<i>/, and SaveSnapshot maintains the engine
//     manifest at DataDir/engine.snap. New always REINITIALISES the
//     layout; resuming a previous image goes through Restore. Empty
//     keeps the in-memory simulators.
type Options = config.Common

// future completes when the shard's scheduler drains the request it
// tracks.
type future struct {
	done chan struct{}
	err  error
}

// shard is one ShardBackend plus its scheduler goroutine and queue.
// The goroutine is the shard's only driver on the hot path: Batch
// only appends to the shard's queue and kicks it, so each backend
// still observes one serial request stream however many callers race
// on the engine.
type shard struct {
	id      int
	backend ShardBackend

	// kick wakes the scheduler goroutine; capacity 1 coalesces kicks
	// that arrive while a drain is running without losing any.
	kick chan struct{}
	done chan struct{}

	// qmu guards the queue the engine scatters into — the engine-side
	// reorder buffer feeding the backend one Batch per drain.
	qmu     sync.Mutex
	queue   []*Request
	waiters []*future

	mu        sync.Mutex
	batches   int64
	requests  int64
	padCycles int64 // dummy cycles run by leveling (see Engine.level)
	// drainSizes counts drains by size; Observe registers it, and it
	// is nil (a no-op) on an engine nobody observes.
	drainSizes *obs.Histogram

	// tracer tags drain spans with this shard's virtual thread id
	// (shard id + 1); nil when the engine is not being observed.
	tracer *obs.Tracer
}

// enqueue appends one request to the shard's queue and returns its
// future. It cannot fail: requests are validated against the global
// geometry before scatter, and the shard-local geometry is a
// projection of it.
func (s *shard) enqueue(r *Request) *future {
	f := &future{done: make(chan struct{})}
	s.qmu.Lock()
	s.queue = append(s.queue, r)
	s.waiters = append(s.waiters, f)
	s.qmu.Unlock()
	return f
}

// depth reports queued-but-undrained requests (the QueueDepth stat).
func (s *shard) depth() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.queue)
}

// maxDrain bounds one backend batch, so a burst of concurrent callers
// cannot build an arbitrarily long drain: whatever is queued past it
// runs as the next drain.
const maxDrain = 1024

// run is the shard's scheduler goroutine: every kick drains whatever
// is queued, at most maxDrain requests per backend batch, and
// completes the futures. This queue is the one place requests from
// different callers merge: it drains at once when idle and takes
// whatever accumulated while the previous drain ran. Drain errors
// reach the waiters through their futures; drain accounting happens
// only for successful drains and before their futures complete, so
// stats snapshots taken after a finished batch always include it.
func (s *shard) run() {
	defer close(s.done)
	for range s.kick {
		for s.drainQueue() {
		}
	}
}

// drainQueue takes up to maxDrain requests from the queue head and
// runs them through the backend as one batch, reporting whether more
// are queued behind them. Requests enqueued while the drain is
// running wait for the next one.
func (s *shard) drainQueue() (more bool) {
	s.qmu.Lock()
	n := min(len(s.queue), maxDrain)
	reqs, futs := s.queue[:n], s.waiters[:n]
	s.queue, s.waiters = s.queue[n:], s.waiters[n:]
	if more = len(s.queue) > 0; !more {
		s.queue, s.waiters = nil, nil // drop the backing array too: it pins the drained requests
	}
	s.qmu.Unlock()
	if n == 0 {
		return false
	}
	sp := s.tracer.Begin("drain", s.id+1)
	err := s.backend.Batch(reqs)
	sp.End(obs.Arg{Key: "size", Val: int64(len(reqs))})
	if err == nil {
		s.recordDrain(len(reqs))
	}
	for _, f := range futs {
		f.err = err
		close(f.done)
	}
	return more
}

// recordDrain is the shard's per-drain accounting.
func (s *shard) recordDrain(n int) {
	s.mu.Lock()
	s.batches++
	s.requests += int64(n)
	s.drainSizes.Observe(float64(n))
	s.mu.Unlock()
}

// Engine is a sharded H-ORAM session. All methods are safe for
// concurrent use; concurrent Batch calls to the same shard coalesce
// into shared scheduler drains.
type Engine struct {
	blocks    int64
	blockSize int
	shards    []*shard
	shardOf   []int32 // global address -> shard index
	local     []int64 // global address -> shard-local address

	// Persistence wiring (zero-valued for pure simulations).
	dataDir   string
	manifest  snapshot.Manifest  // geometry echo; persisted at each SaveSnapshot
	manSealer blockcipher.Sealer // seals the manifest container payload

	// pause quiesces the engine: every Batch holds it read-locked for
	// its whole lifetime (scatter, gather, level), so SaveSnapshot's
	// write lock waits for in-flight batches and blocks new ones while
	// the image is taken.
	pause sync.RWMutex

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
	pending  int // batches in flight; the last one out levels
	unlevel  int // batches returned since the last leveling pass

	// scatterFault, when set, is consulted before each enqueue during
	// Batch's scatter phase. Tests inject mid-scatter failures with it;
	// nil in production (enqueue cannot fail after validate).
	scatterFault func(i int, r *Request) error

	// Observability wiring (Observe, see obs.go). Nil instruments are
	// no-ops, so the unobserved hot path pays nothing but nil checks.
	tracer     *obs.Tracer
	obsBatches *obs.Counter
	obsOps     *obs.Counter
	obsLevels  *obs.Counter
	batchHist  *obs.Histogram
	levelHist  *obs.Histogram
}

// Request and Op mirror the core types; engine callers need not import
// core for batch submission.
type Request = core.Request

// Request operations.
const (
	OpRead  = core.OpRead
	OpWrite = core.OpWrite
)

// resolveOptions fills defaults and validates through the shared
// config rules, plus the engine-specific shard bounds.
func resolveOptions(opts Options) (Options, error) {
	opts = opts.WithDefaults()
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if err := opts.Validate("engine"); err != nil {
		return opts, err
	}
	if opts.Shards < 1 || opts.Shards > MaxShards {
		return opts, fmt.Errorf("engine: Shards %d out of [1,%d]", opts.Shards, MaxShards)
	}
	if int64(opts.Shards) > opts.Blocks {
		return opts, fmt.Errorf("engine: %d shards for %d blocks; every shard needs at least one block", opts.Shards, opts.Blocks)
	}
	if opts.MemoryBytes/int64(opts.Shards) <= 0 {
		return opts, fmt.Errorf("engine: MemoryBytes %d too small for %d shards", opts.MemoryBytes, opts.Shards)
	}
	return opts, nil
}

// shardPlan is the deterministic derivation every assembly path (and
// every -shard-serve node, via ShardConfig) must agree on: the PRF
// partition of the global address space and the per-shard option
// sets, all derived from the global options alone.
type shardPlan struct {
	prf       *blockcipher.PRF // nil in insecure mode
	shardOf   []int32
	local     []int64
	counts    []int64
	shardOpts []core.Options
}

// planShards computes the plan for resolved options.
//
// Per-shard key material: with a real key, shard keys are PRF
// derivations of the master key, so every shard gets an independent
// sealer nonce stream and independent randomness — sharing the raw
// master key across shards would repeat GCM nonces. Insecure mode
// derives per-shard seeds from the engine seed instead. The partition
// derives from the epoch-INDEPENDENT base seed: it must come out
// identical on every restore or the shard-local address spaces would
// scramble.
func planShards(opts Options) (*shardPlan, error) {
	var prf *blockcipher.PRF
	seed := opts.Seed
	if opts.Insecure {
		if seed == "" {
			seed = "engine-insecure"
		}
	} else {
		var err error
		prf, err = blockcipher.NewPRF(opts.Key)
		if err != nil {
			return nil, err
		}
		if seed == "" {
			seed = string(prf.Derive("engine-seed", 32))
		}
	}

	// PRF partition: deal a keyed pseudorandom permutation of the
	// address space round-robin into the shards. Balanced to within one
	// block, and the address->shard map is secret (derived from the
	// key/seed), never from address arithmetic an adversary could
	// correlate with workload structure.
	p := &shardPlan{
		prf:     prf,
		shardOf: make([]int32, opts.Blocks),
		local:   make([]int64, opts.Blocks),
		counts:  make([]int64, opts.Shards),
	}
	partRNG := blockcipher.NewRNGFromString(seed + "/engine-partition")
	perm := partRNG.Perm(int(opts.Blocks))
	for i, addr := range perm {
		s := i % opts.Shards
		p.shardOf[addr] = int32(s)
		p.local[addr] = int64(i / opts.Shards)
		p.counts[s]++
	}

	memPerShard := opts.MemoryBytes / int64(opts.Shards)
	p.shardOpts = make([]core.Options, opts.Shards)
	for s := 0; s < opts.Shards; s++ {
		p.shardOpts[s] = core.Options{
			Blocks:       p.counts[s],
			BlockSize:    opts.BlockSize,
			MemoryBytes:  memPerShard,
			Insecure:     opts.Insecure,
			ShuffleRatio: opts.ShuffleRatio,
			Stages:       opts.Stages,
			ConstantTime: opts.ConstantTime,
			FsyncEvery:   opts.FsyncEvery,
		}
		if opts.DataDir != "" {
			p.shardOpts[s].DataDir = shardDir(opts.DataDir, s)
		}
		if opts.Insecure {
			p.shardOpts[s].Seed = fmt.Sprintf("%s/shard-%d", seed, s)
		} else {
			p.shardOpts[s].Key = prf.Derive(fmt.Sprintf("engine-shard-key-%d", s), 32)
		}
	}
	return p, nil
}

// ShardConfig derives the options a horamd -shard-serve node must run
// as shard index of a cluster whose gateway runs with opts: the
// shard's slice of the PRF partition (Blocks), its share of the
// memory budget, its derived key material, and the cluster identity
// echoed in its manifest — so a node launched with drifted global
// geometry, options or seed is refused at gateway assembly, and a
// durable node directory can never be resumed as a different shard.
// DataDir is cleared: where (and whether) the node persists is the
// node's own concern, not part of the cluster-wide derivation.
func ShardConfig(opts Options, index int) (Options, error) {
	opts, err := resolveOptions(opts)
	if err != nil {
		return Options{}, err
	}
	if index < 0 || index >= opts.Shards {
		return Options{}, fmt.Errorf("engine: ShardConfig(%d): index out of [0,%d)", index, opts.Shards)
	}
	plan, err := planShards(opts)
	if err != nil {
		return Options{}, err
	}
	out := plan.shardOpts[index]
	out.Shards = 1
	out.ClusterShards = opts.Shards
	out.ShardIndex = index
	out.DataDir = ""
	return out, nil
}

// New validates the options, PRF-partitions the address space, builds
// the S in-process shard instances and starts their scheduler
// goroutines. With DataDir set the durable layout is reinitialised
// from scratch; resuming a persisted image goes through Restore.
func New(opts Options) (*Engine, error) {
	opts, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	return assemble(opts, false)
}

// NewWithBackends assembles an engine over already-live shard
// backends — internal/cluster's remote shards, or any mix of
// transports a test supplies. The options describe the same GLOBAL
// geometry a single-process engine would run with; the backends must
// match the PRF partition's per-shard block counts exactly (shard i
// of a cluster serves plan slice i — see ShardConfig) and must agree
// on epoch and checkpoint, or assembly is refused. DataDir must be
// empty: remote shards own their durability node-side, and the engine
// manifest file only exists for in-process layouts.
func NewWithBackends(opts Options, backends []ShardBackend) (*Engine, error) {
	opts, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if opts.DataDir != "" {
		return nil, errors.New("engine: NewWithBackends with Options.DataDir: remote shards persist node-side; the engine manifest is only maintained for in-process layouts")
	}
	if len(backends) != opts.Shards {
		return nil, fmt.Errorf("engine: %d backends for %d shards", len(backends), opts.Shards)
	}
	plan, err := planShards(opts)
	if err != nil {
		return nil, err
	}
	for i, b := range backends {
		if got := b.Blocks(); got != plan.counts[i] {
			return nil, fmt.Errorf("engine: backend %d serves %d blocks, the partition assigns it %d (node launched with drifted global geometry?)", i, got, plan.counts[i])
		}
	}
	return build(opts, plan, backends)
}

// assemble builds the engine from resolved options over in-process
// shards; restoring selects core.RestoreCheckpoint (resume each shard
// from its snapshot at one consistent cut) over core.Open (fresh
// layout).
func assemble(opts Options, restoring bool) (*Engine, error) {
	plan, err := planShards(opts)
	if err != nil {
		return nil, err
	}
	if opts.DataDir != "" && !restoring {
		// A fresh engine reinitialises every shard layout; a manifest
		// from a previous instance must not survive to steer a later
		// load-on-start probe into restoring over it.
		if err := os.Remove(manifestPath(opts.DataDir)); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}

	// Restores must land every shard on ONE consistent checkpoint cut
	// with ONE fresh boot epoch, even when a crash interrupted a
	// previous checkpoint or restore loop and left the per-shard
	// snapshots staggered: the cut is the newest checkpoint every shard
	// still has (current or rotated-previous copy), and the epoch is
	// one past the highest any shard has ever used, so no shard can
	// replay a nonce/RNG stream.
	var targetCkpt, targetEpoch uint64
	if restoring {
		for s, so := range plan.shardOpts {
			epoch, ckpt, err := core.Peek(so)
			if err != nil {
				return nil, fmt.Errorf("engine: shard %d: %w", s, err)
			}
			if s == 0 || ckpt < targetCkpt {
				targetCkpt = ckpt
			}
			if epoch >= targetEpoch {
				targetEpoch = epoch + 1
			}
		}
	}

	backends := make([]ShardBackend, opts.Shards)
	for s, so := range plan.shardOpts {
		var c *core.Client
		if restoring {
			c, err = core.RestoreCheckpoint(so, targetCkpt, targetEpoch)
		} else {
			c, err = core.Open(so)
		}
		if err != nil {
			// Unwind the shards already open, or their resources leak
			// on every failed construction attempt.
			for _, prev := range backends[:s] {
				prev.Close() //horam:errok unwinding a failed construction; the shard-open error is the one to surface
			}
			return nil, fmt.Errorf("engine: shard %d: %w", s, err)
		}
		backends[s] = c
	}
	return build(opts, plan, backends)
}

// build wires live backends into an engine: one scheduler goroutine
// per shard, then the manifest echo (which also verifies cross-shard
// epoch/checkpoint agreement, in-process or over the wire).
func build(opts Options, plan *shardPlan, backends []ShardBackend) (*Engine, error) {
	e := &Engine{
		blocks:    opts.Blocks,
		blockSize: opts.BlockSize,
		dataDir:   opts.DataDir,
		shardOf:   plan.shardOf,
		local:     plan.local,
	}
	for i, b := range backends {
		sh := &shard{
			id:      i,
			backend: b,
			kick:    make(chan struct{}, 1),
			done:    make(chan struct{}),
		}
		go sh.run()
		e.shards = append(e.shards, sh)
	}
	if err := e.wireManifest(opts, plan.prf); err != nil {
		e.Close() //horam:errok unwinding a failed construction; the manifest error is the one to surface
		return nil, err
	}
	return e, nil
}

// Blocks returns the logical data set size N in blocks.
func (e *Engine) Blocks() int64 { return e.blocks }

// BlockSize returns the block size in bytes.
func (e *Engine) BlockSize() int { return e.blockSize }

// Shards returns the shard count S.
func (e *Engine) Shards() int { return len(e.shards) }

// ShardOf returns the shard serving a global address. It panics on an
// out-of-range address.
func (e *Engine) ShardOf(addr int64) int {
	if addr < 0 || addr >= e.blocks {
		panic(fmt.Sprintf("engine: ShardOf(%d): address out of range [0,%d)", addr, e.blocks))
	}
	return int(e.shardOf[addr])
}

// Shard exposes shard i's underlying in-process client for stats
// collection and adversary hooks (trace tests). It panics on an
// out-of-range index, and on a shard that is not in-process — a
// remote shard's H-ORAM instance lives in another process and has no
// client here. Do not drive the client directly while the engine is
// serving traffic.
func (e *Engine) Shard(i int) *core.Client {
	if i < 0 || i >= len(e.shards) {
		panic(fmt.Sprintf("engine: Shard(%d): index out of range [0,%d)", i, len(e.shards)))
	}
	c, ok := e.shards[i].backend.(*core.Client)
	if !ok {
		panic(fmt.Sprintf("engine: Shard(%d): shard is not in-process (remote backend)", i))
	}
	return c
}

// Backend exposes shard i's transport backend. It panics on an
// out-of-range index.
func (e *Engine) Backend(i int) ShardBackend {
	if i < 0 || i >= len(e.shards) {
		panic(fmt.Sprintf("engine: Backend(%d): index out of range [0,%d)", i, len(e.shards)))
	}
	return e.shards[i].backend
}

// validate rejects a malformed request before anything is enqueued, so
// one bad request cannot strand a half-scattered batch.
func (e *Engine) validate(r *Request) error {
	if r == nil {
		return errors.New("engine: nil request")
	}
	if r.Addr < 0 || r.Addr >= e.blocks {
		return fmt.Errorf("engine: address %d out of range [0,%d)", r.Addr, e.blocks)
	}
	if r.Op == OpWrite && len(r.Data) != e.blockSize {
		return fmt.Errorf("engine: write payload %d bytes, want %d", len(r.Data), e.blockSize)
	}
	return nil
}

// Batch runs the requests as one logical batch: it scatters them to
// the owning shards' queues (addresses translated to shard space),
// kicks every involved scheduler, gathers all futures, and levels
// cycle counts across the shards (see the package doc) before
// returning. Results land in each request's Result field in
// submission order. Requests for different shards execute
// concurrently; requests for one shard keep their submission order, so
// per-address read-your-writes semantics match the single-instance
// engine.
func (e *Engine) Batch(reqs []*Request) error {
	for _, r := range reqs {
		if err := e.validate(r); err != nil {
			return err
		}
	}
	// Held read-locked for the whole batch (scatter, gather, level):
	// SaveSnapshot write-locks it to quiesce the engine.
	e.pause.RLock()
	defer e.pause.RUnlock()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.inflight.Add(1)
	e.pending++
	e.mu.Unlock()
	defer e.inflight.Done()

	// Instrumentation: count the accepted batch, time it when a
	// histogram is wired, span it when tracing. All nil-safe no-ops on
	// an unobserved engine.
	var obsStart time.Time
	if e.batchHist != nil {
		obsStart = time.Now()
	}
	sp := e.tracer.Begin("batch", 0)

	// Scatter: shadow requests carry the shard-local addresses so the
	// caller's requests are never mutated.
	shadows := make([]*Request, len(reqs))
	futures := make([]*future, len(reqs))
	kicked := make(map[int]bool, len(e.shards))
	var firstErr error
	for i, r := range reqs {
		sh := e.shards[e.shardOf[r.Addr]]
		shadows[i] = &Request{Op: r.Op, Addr: e.local[r.Addr], Data: r.Data, User: r.User}
		if e.scatterFault != nil {
			if err := e.scatterFault(i, r); err != nil {
				// Never strand what is already enqueued: requests
				// before i stay issued and are gathered below, requests
				// from i on are never issued and their futures stay
				// nil.
				firstErr = fmt.Errorf("engine: shard %d: %w", sh.id, err)
				break
			}
		}
		futures[i] = sh.enqueue(shadows[i])
		kicked[sh.id] = true
	}
	for id := range kicked {
		select {
		case e.shards[id].kick <- struct{}{}:
		default: // a kick is already pending; the drain will see us
		}
	}

	// Gather: wait for every issued future, then copy results back in
	// submission order. Un-issued requests (nil future after a partial
	// scatter) are skipped entirely: their Result fields must stay
	// exactly as the caller left them, so a caller can distinguish
	// "executed" from "never issued" after a failed batch.
	for i, f := range futures {
		if f == nil {
			continue
		}
		<-f.done
		if f.err != nil && firstErr == nil {
			firstErr = f.err
		}
		reqs[i].Result = shadows[i].Result
		reqs[i].SubmitSim = shadows[i].SubmitSim
		reqs[i].DoneSim = shadows[i].DoneSim
	}

	// Level even when the batch failed: whatever real cycles did run
	// must still be masked. Concurrent batches amortize the pass: the
	// last batch in flight runs it — that batch observes the true
	// maximum, and padding only ever raises counts toward the target,
	// so skipped intermediate passes never leave a shard overshooting.
	// Whenever the engine goes quiescent the final batch has leveled,
	// which is the only point the adversary model compares counts at.
	// Under sustained load there may never be a last batch, so every
	// levelEvery-th return levels too (see levelEvery).
	e.mu.Lock()
	e.pending--
	e.unlevel++
	due := e.pending == 0 || e.unlevel >= levelEvery
	if due {
		e.unlevel = 0
	}
	e.mu.Unlock()
	if due {
		if err := e.level(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.observeBatch(len(reqs), obsStart, sp)
	return firstErr
}

// levelEvery bounds how many batches may return without a leveling
// pass while the engine never goes quiescent, so how far the shards'
// cycle counts drift apart depends on batch count, not on how long the
// load lasts. Passes taken mid-flight pad shards that the batches still
// in flight may be about to drive anyway; 32 keeps that overhead under
// 2 % of cycles on the kv_mixed benchmark workload (8 cost 7 %).
const levelEvery = 32

// level pads every shard with dummy scheduler cycles up to the current
// maximum cumulative cycle count, so per-shard traffic volume is
// workload-independent (see the package doc). With remote backends
// both the reads and the padding go over the wire (CYCLES/PAD) — the
// leveling invariant is cluster-global. Concurrent batches may
// interleave their level passes with each other's drains; padding only
// ever raises a shard toward the observed maximum, which real drains
// alone can raise, so counts converge to equality whenever the engine
// is quiescent — the last batch to finish observes the true maximum
// and levels everything to it.
func (e *Engine) level() error {
	e.obsLevels.Inc()
	if len(e.shards) == 1 {
		return nil // a single instance has no cross-shard channel
	}
	var obsStart time.Time
	if e.levelHist != nil {
		obsStart = time.Now()
	}
	sp := e.tracer.Begin("level", 0)
	counts := make([]int64, len(e.shards))
	var target int64
	defer func() {
		if e.levelHist != nil {
			e.levelHist.ObserveDuration(time.Since(obsStart))
		}
		sp.End(obs.Arg{Key: "target", Val: target})
	}()
	for i, sh := range e.shards {
		n, err := sh.backend.Cycles()
		if err != nil {
			return fmt.Errorf("engine: shard %d: leveling: %w", sh.id, err)
		}
		counts[i] = n
		if n > target {
			target = n
		}
	}
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i, sh := range e.shards {
		if counts[i] >= target {
			continue // may still be raised by a concurrent drain; that batch levels
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			padded, err := sh.backend.PadToCycles(target)
			if padded > 0 {
				sh.mu.Lock()
				sh.padCycles += padded
				sh.mu.Unlock()
			}
			if err != nil {
				errs[i] = fmt.Errorf("engine: shard %d: leveling: %w", sh.id, err)
			}
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Cycles returns the engine's leveled cumulative cycle count: the
// maximum across shards, which every shard matches whenever the
// engine is quiescent. It backs the CYCLES shard-control verb a
// -shard-serve node answers, so a gateway can read the count this
// engine's shard(s) have run.
func (e *Engine) Cycles() (int64, error) {
	var max int64
	for _, sh := range e.shards {
		n, err := sh.backend.Cycles()
		if err != nil {
			return 0, fmt.Errorf("engine: shard %d: %w", sh.id, err)
		}
		if n > max {
			max = n
		}
	}
	return max, nil
}

// PadToCycles pads every shard with dummy cycles up to target (a
// no-op for shards already there) and returns the total padded. It
// backs the PAD shard-control verb: a gateway levels a cluster by
// reading every node's CYCLES and padding the stragglers to the
// maximum, exactly as Engine.level does in-process.
func (e *Engine) PadToCycles(target int64) (int64, error) {
	e.pause.RLock()
	defer e.pause.RUnlock()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	e.mu.Unlock()
	var total int64
	for _, sh := range e.shards {
		padded, err := sh.backend.PadToCycles(target)
		if padded > 0 {
			sh.mu.Lock()
			sh.padCycles += padded
			sh.mu.Unlock()
			total += padded
		}
		if err != nil {
			return total, fmt.Errorf("engine: shard %d: %w", sh.id, err)
		}
	}
	return total, nil
}

// Read returns the BlockSize-byte contents of addr (zeros if the block
// was never written) as a one-request batch.
func (e *Engine) Read(addr int64) ([]byte, error) {
	r := &Request{Op: OpRead, Addr: addr}
	if err := e.Batch([]*Request{r}); err != nil {
		return nil, err
	}
	return r.Result, nil
}

// Write stores data (exactly BlockSize bytes) at addr as a one-request
// batch.
func (e *Engine) Write(addr int64, data []byte) error {
	return e.Batch([]*Request{{Op: OpWrite, Addr: addr, Data: data}})
}

// Close waits for in-flight batches, stops the shard scheduler
// goroutines and releases the shards' backends (durable resources for
// in-process shards, connections for remote ones). It does not
// snapshot; callers that want the latest control state persisted call
// SaveSnapshot first. Batch calls after Close return ErrClosed. Safe
// to call more than once; the returned error is the join of the
// shards' backend-release failures (nil for a pure simulation, and
// nil on repeat calls — resources are already gone).
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		for _, sh := range e.shards {
			<-sh.done
		}
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.inflight.Wait()
	for _, sh := range e.shards {
		close(sh.kick)
	}
	var err error
	for _, sh := range e.shards {
		<-sh.done
		err = errors.Join(err, sh.backend.Close())
	}
	return err
}

// Summary aggregates scheme counters across shards. SimTime is the
// MAX of the shard clocks, not the sum: shards model independent
// hardware running concurrently, so the batch of work is done when the
// slowest shard is.
type Summary struct {
	Shards   int
	Requests int64
	Hits     int64
	Misses   int64
	Shuffles int64
	Cycles   int64
	Batches  int64 // per-shard scheduler drains, summed
	Padded   int64 // leveling dummy cycles, summed (subset of Cycles)
	// Quanta sums the shards' incremental shuffle quanta; MaxCycleTime
	// is the costliest single scheduler cycle on any shard — the
	// deamortization bound, O(one partition) of storage work.
	Quanta       int64
	MaxCycleTime time.Duration
	SimTime      time.Duration
}

// Stats returns the aggregate counters.
func (e *Engine) Stats() Summary {
	sum := Summary{Shards: len(e.shards)}
	for _, sh := range e.shards {
		cs := sh.backend.Stats()
		sum.Requests += cs.Requests
		sum.Hits += cs.Hits
		sum.Misses += cs.Misses
		sum.Shuffles += cs.Shuffles
		sum.Cycles += cs.Cycles
		sum.Quanta += cs.ShuffleQuanta
		if cs.MaxCycleTime > sum.MaxCycleTime {
			sum.MaxCycleTime = cs.MaxCycleTime
		}
		if cs.SimulatedTime > sum.SimTime {
			sum.SimTime = cs.SimulatedTime
		}
		sh.mu.Lock()
		sum.Batches += sh.batches
		sum.Padded += sh.padCycles
		sh.mu.Unlock()
	}
	return sum
}

// ShardStats is one shard's serving snapshot: its queue depth, its
// scheduler-drain counters and its scheme counters.
type ShardStats struct {
	Shard      int
	Blocks     int64
	QueueDepth int   // requests enqueued but not yet drained
	Batches    int64 // scheduler drains executed
	Requests   int64 // logical requests drained
	MeanBatch  float64
	Cycles     int64
	PadCycles  int64 // leveling dummy cycles (subset of Cycles)
	Hits       int64
	Misses     int64
	Shuffles   int64
	// ShuffleQuanta counts incremental shuffle quanta executed;
	// MaxCycleTime is the shard's costliest single scheduler cycle,
	// shuffle work included.
	ShuffleQuanta int64
	MaxCycleTime  time.Duration
	SimTime       time.Duration
}

// ShardStats returns a per-shard snapshot, indexed by shard id.
func (e *Engine) ShardStats() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i, sh := range e.shards {
		cs := sh.backend.Stats()
		sh.mu.Lock()
		st := ShardStats{
			Shard:         i,
			Blocks:        sh.backend.Blocks(),
			QueueDepth:    sh.depth(),
			Batches:       sh.batches,
			Requests:      sh.requests,
			Cycles:        cs.Cycles,
			PadCycles:     sh.padCycles,
			Hits:          cs.Hits,
			Misses:        cs.Misses,
			Shuffles:      cs.Shuffles,
			ShuffleQuanta: cs.ShuffleQuanta,
			MaxCycleTime:  cs.MaxCycleTime,
			SimTime:       cs.SimulatedTime,
		}
		sh.mu.Unlock()
		if st.Batches > 0 {
			st.MeanBatch = float64(st.Requests) / float64(st.Batches)
		}
		out[i] = st
	}
	return out
}

// DrainSizes returns shard i's drain-size histogram (bounds
// obs.BatchSizeBounds), or nil before Observe.
func (e *Engine) DrainSizes(i int) *obs.Histogram {
	sh := e.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.drainSizes
}
