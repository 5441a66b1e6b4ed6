// Package horam implements H-ORAM, the paper's contribution: a hybrid
// ORAM that splits a large data set between a fast memory tier and a
// slow storage tier and lets the memory tier act as a cache without
// leaking the hit/miss pattern.
//
// Layout (paper §4.1):
//
//   - control layer (trusted): permutation list, position map (inside
//     the embedded Path ORAM), request scheduler with its ROB table;
//   - memory layer: a Path ORAM tree of n slots (≤ n/2 real blocks)
//     that starts every period empty and fills with fetched blocks;
//   - storage layer: N sealed blocks in √N partitions, each block read
//     at most once per access period (square-root invariant).
//
// Operation alternates between an access period — the scheduler groups
// c in-memory hits with exactly 1 storage load per cycle, padding with
// dummies, so every cycle presents the same bus shape — and a shuffle
// period — the tree is obliviously evicted and the storage partitions
// are re-permuted with sequential I/O (§4.3).
package horam

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/oramtree"
	"repro/internal/pathoram"
	"repro/internal/posmap"
	"repro/internal/record"
	"repro/internal/simclock"
)

// Op selects the request type.
type Op uint8

// Request operations.
const (
	OpRead Op = iota
	OpWrite
)

// Stage is one phase of the scheduler's group-size schedule (§4.2);
// the definition lives in internal/config so every layer shares it.
type Stage = config.Stage

// PaperStages returns the schedule used in the paper's evaluation:
// c = {1, 3, 5} over {20%, 13%, 67%} of each period (ĉ ≈ 3.94).
func PaperStages() []Stage {
	return []Stage{{C: 1, Frac: 0.20}, {C: 3, Frac: 0.13}, {C: 5, Frac: 0.67}}
}

// Config parameterises an H-ORAM instance.
type Config struct {
	// Blocks is the logical data set size N in blocks.
	Blocks int64
	// BlockSize is the plaintext block payload in bytes.
	BlockSize int
	// MemoryBytes is the memory-tier budget, counted in plaintext
	// block capacity as the paper does (n = MemoryBytes / BlockSize
	// slots; sealing metadata is not billed against the budget). It
	// pays for the whole memory tree: the top ⌊(L+1)/2⌋ of its L+1
	// levels are held unsealed in the controller (see
	// pathoram.Config.Trusted) and the rest sit sealed in the DRAM
	// device, so the two together hold exactly the tree's slots.
	MemoryBytes int64
	// Z is the Path ORAM bucket size for the memory tree (paper: 4).
	Z int
	// Stages is the scheduler's c schedule; nil selects PaperStages.
	Stages []Stage
	// PrefetchDepth is the scheduler's ROB scan window d (> max C);
	// zero selects 2·maxC + 2.
	PrefetchDepth int
	// ShuffleRatio r selects partial shuffling (§5.3.1): the fraction
	// of partitions reshuffled per period. 0 or 1 means full shuffle.
	// With r < 1 partitions get 2x slack slots to absorb imbalance.
	ShuffleRatio float64
	// ConstantTime hardens the memory tree's trusted-memory control
	// structures (stash, position map) against a co-located timing
	// adversary; see pathoram.Config.ConstantTime. Device traffic is
	// byte-identical to the default mode. This layer is not hardened:
	// its memory touches still depend on the secret address. cycleInner
	// indexes the permutation list at each window request's address,
	// serveHit probes the pool map keyed by it, evictTree permutes the
	// evicted pool with an ordinary Fisher–Yates shuffle, and the
	// partition rewrite calls the permutation list's SetStorage once
	// per address it places (see ROADMAP item 18). Nor does a pad cost
	// what a hit costs: a hit runs pathoram.Access, whose pm.Get and
	// pm.Remap are two masked position-map scans, while a pad runs
	// DummyAccess, which scans none (ROADMAP item 20).
	ConstantTime bool
	// Sealer seals blocks on both tiers; required.
	Sealer blockcipher.Sealer
	// RNG drives all randomness; required and must be dedicated.
	RNG *blockcipher.RNG
	// Storage optionally supplies the storage-tier device — e.g. a
	// durable device.File — instead of the default in-memory
	// device.Sim. The factory receives the storage profile,
	// device.PaperHDD(), and the sealed-slot geometry; whatever it
	// returns must honour the Backend contract. The memory tier is
	// always a device.DRAM() Sim: it models DRAM, which a restart
	// loses anyway (its contents ride in snapshots instead).
	Storage device.Factory
	// ShuffleMark, when set, is called around every shuffle period's
	// storage writes: once with (gen, false) before the first
	// partition write of generation gen, and once with (gen, true)
	// after the generation's writes are durable (the storage device is
	// synced first). The persistence layer uses it to keep the on-disk
	// generation marker truthful, which is what lets a restore detect
	// a stale or torn storage image.
	ShuffleMark func(gen int64, done bool) error
}

func (c Config) validate() error {
	if c.Blocks <= 0 {
		return fmt.Errorf("horam: Blocks must be positive, got %d", c.Blocks)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("horam: BlockSize must be positive, got %d", c.BlockSize)
	}
	if c.MemoryBytes <= 0 {
		return errors.New("horam: MemoryBytes must be positive")
	}
	if c.Z < 0 {
		return errors.New("horam: Z must be non-negative")
	}
	if c.Sealer == nil {
		return errors.New("horam: Sealer is required")
	}
	if c.RNG == nil {
		return errors.New("horam: RNG is required")
	}
	if c.ShuffleRatio < 0 || c.ShuffleRatio > 1 {
		return fmt.Errorf("horam: ShuffleRatio %v out of [0,1]", c.ShuffleRatio)
	}
	sum := 0.0
	for _, s := range c.Stages {
		if s.C <= 0 || s.Frac < 0 {
			return fmt.Errorf("horam: invalid stage %+v", s)
		}
		sum += s.Frac
	}
	if c.Stages != nil && math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("horam: stage fractions sum to %v, want 1", sum)
	}
	return nil
}

// SlotSize returns the sealed slot size on both tiers.
func (c Config) SlotSize() int { return record.SlotSize(c.BlockSize, c.Sealer) }

// Stats aggregates a run's scheme-level counters.
type Stats struct {
	Requests     int64 // logical requests completed: Hits + Misses
	Cycles       int64 // scheduler cycles executed
	Misses       int64 // requests completed by their own storage load
	Hits         int64 // requests completed by the memory tier
	DummyIO      int64 // dummy storage loads (random prefetches)
	DummyMemory  int64 // padding path accesses in the memory tier
	Shuffles     int64 // shuffle periods completed
	PartShuffled int64 // partitions reshuffled in total
	EvictedReal  int64 // real blocks evicted from the tree across shuffles
	// ShuffleQuanta counts incremental shuffle quanta executed (the
	// tree evict and each partition rewrite count one).
	ShuffleQuanta int64
	// MaxCycleTime is the device time charged by the costliest single
	// scheduler cycle, including any shuffle work that ran inside it —
	// the deamortization bound the incremental pipeline enforces, and
	// the direct tail-latency witness: a cycle carries at most one
	// partition rewrite plus, when a period starts, the tree evict —
	// never the whole period.
	MaxCycleTime time.Duration
}

// ORAM is an H-ORAM instance. Not safe for concurrent use: callers
// serialise through core.Client's mutex, and the engine runs one
// scheduler goroutine per shard.
type ORAM struct {
	cfg    Config
	stages []Stage
	depth  int

	clk     *simclock.Clock // global wall clock (overlap-aware)
	clkMem  *simclock.Clock // memory-tier private clock
	clkStor *simclock.Clock // storage-tier private clock
	acct    *simclock.Accumulator

	mem     *pathoram.ORAM
	memDev  *device.Sim
	storDev device.Backend

	perm       *posmap.PermutationList
	partitions int64 // P = ⌈√N⌉
	partSlots  int64 // slots per partition (with slack when r < 1)
	nextPart   int64 // partial shuffle cursor

	missBudget int64 // storage loads allowed per access period (n/2)
	missCount  int64 // loads so far this period
	inShuffle  bool  // shuffle work (a full pass or one quantum) is executing
	shuffleGen int64 // completed shuffle periods (the durability marker)

	sm       shuffleState // incremental shuffle state machine
	poisoned error        // sticky failure after a mid-flight shuffle error

	codec    *record.Codec // sealed-record hot path
	shuf     *shufScratch  // shuffle-quantum scratch, one partition wide
	fetchBuf []byte        // fetchBlock sealed-slot scratch
	fetchPt  []byte        // fetchBlock plaintext scratch

	rob   []*Request
	stats Stats

	// Observability wiring (SetObs). Config cannot carry these — it is
	// part of the serializable option set — so they are injected after
	// construction. All three are nil-safe no-ops when unset.
	obsTracer  *obs.Tracer
	obsTid     int
	obsQuantum *obs.Histogram
}

// SetObs wires the request-path tracer and the shuffle-quantum
// latency histogram into the instance. tid is the virtual thread id
// the instance's spans are tagged with in trace dumps (by convention
// shard index + 1; 0 is the serving layer). Call before serving
// traffic; the scheduler reads the fields unsynchronised.
func (o *ORAM) SetObs(tr *obs.Tracer, tid int, quantum *obs.Histogram) {
	o.obsTracer = tr
	o.obsTid = tid
	o.obsQuantum = quantum
}

// Request is one queued logical operation. After a batch completes,
// Result holds the block contents for reads (and the previous contents
// for writes). User tags the issuing client in multi-user runs.
type Request struct {
	Op     Op
	Addr   int64
	Data   []byte
	Result []byte
	User   int

	// SubmitSim and DoneSim are the instance's virtual-clock readings
	// when the request entered the ROB and when it completed; their
	// difference is the request's simulated latency, including any
	// shuffle work that ran in between. The latency benchmark reads
	// them; the scheduler fills them on every request.
	SubmitSim time.Duration
	DoneSim   time.Duration

	done bool
}

// New constructs an H-ORAM, building both tier devices and writing the
// initial permuted storage layout (unmeasured setup). New always
// reinitialises the storage tier — including a durable device.File,
// whose previous contents are overwritten; resuming from a persisted
// image goes through Restore instead.
func New(cfg Config) (*ORAM, error) {
	o, err := construct(cfg)
	if err != nil {
		return nil, err
	}
	if err := o.initStorage(); err != nil {
		o.CloseStorage()
		return nil, err
	}
	return o, nil
}

// construct builds the instance skeleton — devices, memory tree,
// permutation list — without touching the storage contents. New
// initialises them; Restore installs a snapshot instead.
func construct(cfg Config) (*ORAM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Z == 0 {
		cfg.Z = 4
	}
	stages := cfg.Stages
	if stages == nil {
		stages = PaperStages()
	}
	maxC := 0
	for _, s := range stages {
		if s.C > maxC {
			maxC = s.C
		}
	}
	depth := cfg.PrefetchDepth
	if depth == 0 {
		depth = 2*maxC + 2
	}
	if depth <= maxC {
		return nil, fmt.Errorf("horam: PrefetchDepth %d must exceed the largest stage C %d", depth, maxC)
	}

	slotSize := cfg.SlotSize()
	memSlots := cfg.MemoryBytes / int64(cfg.BlockSize)
	if memSlots < int64(cfg.Z) {
		return nil, fmt.Errorf("horam: memory budget %d bytes holds %d slots; need at least one bucket (%d)", cfg.MemoryBytes, memSlots, cfg.Z)
	}

	o := &ORAM{
		cfg:     cfg,
		stages:  stages,
		depth:   depth,
		clk:     simclock.New(),
		clkMem:  simclock.New(),
		clkStor: simclock.New(),
		acct:    simclock.NewAccumulator(),
	}
	o.codec = record.New(cfg.Sealer, cfg.BlockSize)
	o.fetchBuf = make([]byte, slotSize)
	o.fetchPt = make([]byte, o.codec.PtSize())

	// Memory tier: the largest Path ORAM tree that fits the budget.
	// The top half of its levels stays in the controller (every path
	// shares them, so they need not be sealed or cross the bus); the
	// DRAM device holds the rest.
	geom, err := oramtree.FitCapacity(memSlots, cfg.Z)
	if err != nil {
		return nil, fmt.Errorf("horam: %w", err)
	}
	trusted := (geom.Levels + 1) / 2
	o.memDev, err = device.New(device.DRAM(), slotSize, geom.Slots()-geom.TopSlots(trusted), o.clkMem)
	if err != nil {
		return nil, err
	}
	// The tree starts every period empty and gains exactly one block
	// per storage load, and a period ends when the loads reach the miss
	// budget (half the tree's slots, set below from Capacity). So the
	// stash never holds more than the miss budget: bound it there in
	// both modes. In constant-time mode that bound is the length of
	// every masked stash scan; in either mode a broken bound fails as
	// stash.ErrFull instead of going unnoticed.
	memCfg := pathoram.Config{
		Blocks:       cfg.Blocks,
		BlockSize:    cfg.BlockSize,
		Z:            cfg.Z,
		Capacity:     geom.Slots(),
		Sealer:       cfg.Sealer,
		RNG:          cfg.RNG.Fork("mem-oram"),
		StashLimit:   int(geom.Slots() / 2),
		ConstantTime: cfg.ConstantTime,
		Trusted:      trusted,
	}
	o.mem, err = pathoram.New(memCfg, o.memDev)
	if err != nil {
		return nil, err
	}
	o.missBudget = o.mem.Capacity()
	if o.missBudget < 1 {
		return nil, errors.New("horam: memory tree too small to cache any block")
	}

	// Storage tier: √N partitions.
	o.partitions = int64(math.Ceil(math.Sqrt(float64(cfg.Blocks))))
	perPart := (cfg.Blocks + o.partitions - 1) / o.partitions
	slack := int64(1)
	if cfg.ShuffleRatio > 0 && cfg.ShuffleRatio < 1 {
		slack = 2
	}
	o.partSlots = perPart * slack
	if cfg.Storage != nil {
		o.storDev, err = cfg.Storage(device.PaperHDD(), slotSize, o.partitions*o.partSlots, o.clkStor)
	} else {
		o.storDev, err = device.New(device.PaperHDD(), slotSize, o.partitions*o.partSlots, o.clkStor)
	}
	if err != nil {
		return nil, err
	}
	o.perm, err = posmap.NewPermutationList(cfg.Blocks)
	if err != nil {
		o.CloseStorage() // the factory may have opened a real file
		return nil, err
	}
	return o, nil
}

// Mem returns the memory-tier device for stats collection.
func (o *ORAM) Mem() *device.Sim { return o.memDev }

// Stor returns the storage-tier device for stats collection and
// adversary hooks.
func (o *ORAM) Stor() device.Backend { return o.storDev }

// SyncStorage flushes the storage tier's durable medium, when it has
// one (device.File); a pure simulation is a no-op.
func (o *ORAM) SyncStorage() error {
	if s, ok := o.storDev.(device.Syncer); ok {
		return s.Sync()
	}
	return nil
}

// CloseStorage releases the storage tier's OS resources, when it holds
// any. The instance is unusable afterwards.
func (o *ORAM) CloseStorage() error {
	if c, ok := o.storDev.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// ShuffleGen returns the number of completed shuffle periods — the
// generation counter the persistence layer uses to tie a control
// snapshot to the storage image it matches.
func (o *ORAM) ShuffleGen() int64 { return o.shuffleGen }

// Clock returns the global (overlap-aware) virtual clock.
func (o *ORAM) Clock() *simclock.Clock { return o.clk }

// Stats returns scheme-level counters.
func (o *ORAM) Stats() Stats { return o.stats }

// InShuffle reports whether a shuffle quantum is currently executing;
// device hooks use it to classify observed traffic.
func (o *ORAM) InShuffle() bool { return o.inShuffle }

// ShufflePending reports whether an incremental shuffle period is in
// flight: quanta remain to be executed by upcoming scheduler cycles
// (or by FinishShuffle). False between periods.
func (o *ORAM) ShufflePending() bool { return o.sm.active }

// Partitions returns the storage partition count √N.
func (o *ORAM) Partitions() int64 { return o.partitions }

// PartitionSlots returns the slots per partition.
func (o *ORAM) PartitionSlots() int64 { return o.partSlots }

// MissBudget returns the storage loads allowed per access period
// (the paper's n/2).
func (o *ORAM) MissBudget() int64 { return o.missBudget }

// MemTreeCapacity returns the memory tree's real-block capacity.
func (o *ORAM) MemTreeCapacity() int64 { return o.mem.Capacity() }

// currentC returns the stage group size for the current point in the
// period, measured by the fraction of the miss budget consumed.
func (o *ORAM) currentC() int {
	progress := float64(o.missCount) / float64(o.missBudget)
	acc := 0.0
	for _, s := range o.stages {
		acc += s.Frac
		if progress < acc {
			return s.C
		}
	}
	return o.stages[len(o.stages)-1].C
}

// overlap runs the memory-phase and storage-phase thunks, charging the
// global clock max(Δmem, Δstor): the paper issues the I/O load and the
// in-memory reads of one cycle simultaneously.
func (o *ORAM) overlap(memPhase, storPhase func() error) error {
	m0, s0 := o.clkMem.Now(), o.clkStor.Now()
	if err := storPhase(); err != nil {
		return err
	}
	if err := memPhase(); err != nil {
		return err
	}
	dm, ds := o.clkMem.Now()-m0, o.clkStor.Now()-s0
	d := dm
	if ds > d {
		d = ds
	}
	o.clk.Advance(d)
	o.acct.Add("access", d)
	return nil
}

// serial charges the global clock the sum of both tiers' deltas across
// fn — shuffle work is serialised on the storage device.
func (o *ORAM) serial(bucket string, fn func() error) error {
	m0, s0 := o.clkMem.Now(), o.clkStor.Now()
	if err := fn(); err != nil {
		return err
	}
	d := (o.clkMem.Now() - m0) + (o.clkStor.Now() - s0)
	o.clk.Advance(d)
	o.acct.Add(bucket, d)
	return nil
}

// AccessTime returns virtual time spent in access periods.
func (o *ORAM) AccessTime() time.Duration { return o.acct.Get("access") }

// ShuffleTime returns virtual time spent in shuffle periods.
func (o *ORAM) ShuffleTime() time.Duration { return o.acct.Get("shuffle") }
