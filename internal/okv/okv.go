// Package okv is an oblivious key–value store layered on the H-ORAM
// block engine: the outsourced-database workload the paper's
// introduction motivates, built so the KV layer itself cannot re-open
// the access-pattern channel the block store closes.
//
// # Why a fixed shape
//
// An ORAM hides WHICH blocks an operation touches, but not HOW MANY:
// the scheduler runs one cycle per unit of work, and cycle counts are
// observable at the device bus. A KV layer that probes a
// key-dependent number of blocks (the classic linear-probing table:
// walk the collision chain until the key or an empty slot appears)
// therefore leaks key popularity and table structure through the op
// count alone — exactly the leak the engine exists to close. This
// package makes every logical operation issue one identical,
// constant-size block pipeline:
//
//	batch 1: 2·SlotsPerBucket slot reads   (both candidate buckets)
//	batch 2: extents extent reads          (target slot's value run)
//	batch 3: 1 slot write + extents extent writes
//
// GET-hit, GET-miss, SET-insert, SET-update, SET-into-a-full-table
// and DEL (present or absent) all run the full pipeline: misses read
// and rewrite a PRF-chosen dummy slot, GETs write back exactly what
// they read, DELs of absent keys rewrite unchanged blocks. The shape
// is independent of the key, the table occupancy and the value length
// (values are padded to the fixed extent run, up to MaxValueBytes).
// The obliviousness tests in this package assert both the per-op
// batch shape and the full device-event trace.
//
// # Layout
//
// Keys hash to two candidate buckets under a PRF keyed from the
// master key (two-choice hashing keeps bucket overflow exponentially
// unlikely at moderate load factors); each bucket holds
// SlotsPerBucket slots; each slot owns one directory block and a
// fixed run of ceil(MaxValueBytes/BlockSize) extent blocks. All state
// lives in ordinary engine blocks, so the engine's snapshot/restore
// protocol persists the table as a side effect; the only additional
// record is snapshot.KVState (geometry echo + counters), embedded in
// the engine manifest by Store.Checkpoint — persistence adds no new
// volume channel.
//
// # Trusted-memory timing
//
// Target selection and batch-3 composition are branchless on slot
// contents in every mode: one fixed-order pass over all 2S candidate
// slots with masked compares, and masked copies for the write-back
// (selectTarget, composeWrites; both linted as constant-time code).
// The engine's config.WithConstantTime hardens the block layer below.
//
// # Residual channels
//
// The op COUNT is observable, as it is for any client of the block
// store. Input validation (empty/oversized key, oversized value) is
// refused before any block traffic; validity depends only on the
// request itself, never on secret table state, so the refusal reveals
// nothing an adversary did not already know. ErrTableFull is returned
// only AFTER the full fixed pipeline has run. A damaged candidate slot
// (ErrCorruptSlot) stops the op after the lookup batch, before
// anything is written: table damage is not a state the fixed shape
// hides.
package okv

import (
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"sync"

	"repro/internal/blockcipher"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ctops"
	"repro/internal/snapshot"
)

// DefaultSlotsPerBucket is the bucket width. Two-choice hashing with
// 4-slot buckets sustains ~80% load factors with negligible overflow
// probability; the advertised Capacity assumes 100% (a SET may return
// ErrTableFull earlier when both candidate buckets fill).
const DefaultSlotsPerBucket = 4

// Typed errors. Validation errors (key/value) are returned before any
// block traffic; ErrTableFull only after the op's full fixed pipeline.
var (
	ErrKeyInvalid    = errors.New("okv: key empty or over MaxKeyBytes")
	ErrValueTooLarge = errors.New("okv: value over MaxValueBytes")
	ErrTableFull     = errors.New("okv: both candidate buckets full")
	ErrClosed        = errors.New("okv: closed")
)

// Backend is the oblivious block store the table lives in. Both
// *engine.Engine and *core.Client satisfy it.
type Backend interface {
	// Batch runs the requests as one logical batch; results land in
	// each request's Result field in submission order.
	Batch(reqs []*core.Request) error
	// Blocks is the backend's logical address-space size.
	Blocks() int64
	// BlockSize is the block size in bytes.
	BlockSize() int
}

// Options configures a Store.
type Options struct {
	// Backend is the block store the table is laid out in. Required.
	// The store assumes it owns the WHOLE address space: raw block
	// writes interleaved from elsewhere corrupt the table.
	Backend Backend
	// SlotsPerBucket is the bucket width; 0 selects
	// DefaultSlotsPerBucket.
	SlotsPerBucket int
	// MaxValueBytes caps value length and fixes the per-slot extent
	// run at ceil(MaxValueBytes/BlockSize) blocks. 0 selects
	// 4×BlockSize.
	MaxValueBytes int
	// MaxKeyBytes caps key length; 0 selects the largest key a slot
	// block can hold (BlockSize − 7 header bytes).
	MaxKeyBytes int
	// Key is the 32-byte master key the bucket-hashing PRF derives
	// from. Required unless Insecure is set.
	Key []byte
	// Insecure derives the hashing PRF from Seed instead of a key
	// (performance-model runs only; bucket placement becomes
	// predictable).
	Insecure bool
	// Seed is the insecure-mode PRF seed; empty selects a fixed one.
	Seed string
	// ConstantTime is ignored: target selection and batch-3
	// composition are branchless on slot contents in every mode. The
	// engine's config.WithConstantTime hardens the block layer below.
	//
	// Deprecated: the store has one selector; leave the field unset.
	ConstantTime bool
}

// Shape is the fixed per-operation access shape: every Get, Set and
// Del issues exactly LookupReads slot reads, then ExtentReads extent
// reads, then Writes block writes, as three backend batches.
type Shape struct {
	LookupReads int
	ExtentReads int
	Writes      int
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Count    int64 // live keys
	Capacity int64 // total slots (upper bound on live keys)
	Gets     int64
	Sets     int64
	Dels     int64
	// Misses counts lookups (Get or Del) that found no live entry.
	Misses int64
}

// lockStripes is the size of the bucket-lock table. Concurrency is
// bounded by min(lockStripes, in-flight ops), so the value only needs
// to comfortably exceed any realistic serving parallelism.
const lockStripes = 64

// Store is an oblivious key–value table. All methods are safe for
// concurrent use. Each operation is a read-modify-write spanning
// three backend batches, so mutual exclusion is per bucket (striped):
// operations whose candidate buckets share no stripe run their
// pipelines concurrently — that is what lets KV throughput follow the
// engine's shard scaling — while operations on the same key (same
// buckets) serialise and stay linearizable. Checkpoint takes the
// quiesce lock to drain every in-flight pipeline before the directory
// state is captured.
type Store struct {
	be  Backend
	lay layout
	prf *blockcipher.PRF

	quiesce sync.RWMutex            // ops hold R; Checkpoint/Close hold W
	stripes [lockStripes]sync.Mutex // bucket-striped op exclusion
	closed  bool                    // written under quiesce.W, read under .R

	// ops pools per-operation pipeline scratch (request structs,
	// selector scratch, batch-3 buffers), so an op reuses its
	// pipeline's buffers instead of allocating them.
	ops sync.Pool

	statMu sync.Mutex
	count  int64
	gets   int64
	sets   int64
	dels   int64
	misses int64
}

// opScratch holds one operation's fixed pipeline state: the request
// structs and pointer slices of all three batches, the selector's
// scratch, and the batch-3 encode and compose buffers. Shapes depend
// only on the layout, so a pooled scratch serves any op. The pointer slices are
// wired to the request arrays once, at construction; each use resets
// the request structs wholesale (which also clears the scheduler's
// internal completion mark).
type opScratch struct {
	slotIdx  []int64
	lookupRs []core.Request
	lookups  []*core.Request
	extRs    []core.Request
	extReads []*core.Request
	writeRs  []core.Request
	writes   []*core.Request
	slotBuf  []byte   // batch-3 slot encode / delete scrub
	extBufs  [][]byte // batch-3 extent encodes, one backing slab

	// The padded probe key, per-candidate occupancy masks, the
	// gathered target slot read-back, and the masked-composed batch-3
	// payloads.
	keyBuf    []byte
	occs      []int
	slotRead  []byte
	writeSlot []byte
	extWrite  [][]byte // one backing slab
}

func newOpScratch(lay layout) *opScratch {
	S, E := lay.slots, lay.extents
	sc := &opScratch{
		slotIdx:   make([]int64, 2*S),
		lookupRs:  make([]core.Request, 2*S),
		lookups:   make([]*core.Request, 2*S),
		extRs:     make([]core.Request, E),
		extReads:  make([]*core.Request, E),
		writeRs:   make([]core.Request, 1+E),
		writes:    make([]*core.Request, 1+E),
		slotBuf:   make([]byte, lay.blockSize),
		extBufs:   make([][]byte, E),
		keyBuf:    make([]byte, lay.maxKey),
		occs:      make([]int, 2*S),
		slotRead:  make([]byte, lay.blockSize),
		writeSlot: make([]byte, lay.blockSize),
		extWrite:  make([][]byte, E),
	}
	backing := make([]byte, E*lay.blockSize)
	for j := range sc.extBufs {
		sc.extBufs[j] = backing[j*lay.blockSize : (j+1)*lay.blockSize]
	}
	writeBacking := make([]byte, E*lay.blockSize)
	for j := range sc.extWrite {
		sc.extWrite[j] = writeBacking[j*lay.blockSize : (j+1)*lay.blockSize]
	}
	for i := range sc.lookupRs {
		sc.lookups[i] = &sc.lookupRs[i]
	}
	for i := range sc.extRs {
		sc.extReads[i] = &sc.extRs[i]
	}
	for i := range sc.writeRs {
		sc.writes[i] = &sc.writeRs[i]
	}
	return sc
}

// Close refuses further operations after the in-flight ones drain:
// operations after Close return ErrClosed. Safe to call more than
// once. Close does not touch the backend.
func (s *Store) Close() {
	s.quiesce.Lock()
	s.closed = true
	s.quiesce.Unlock()
}

// Stripes returns the two bucket-lock stripes (equal when they
// collide) an operation on key holds for its whole pipeline: two
// operations overlap iff their stripes are disjoint. Placement is
// secret, so this is for trusted in-process callers — a scheduler that
// must not depend on lock-acquisition races starts only operations
// that cannot park.
func (s *Store) Stripes(key []byte) (int, int) { return stripesOf(s.buckets(key)) }

func stripesOf(b0, b1 int64) (int, int) {
	i, j := int(b0%lockStripes), int(b1%lockStripes)
	if i > j {
		i, j = j, i
	}
	return i, j
}

// lockBuckets locks the stripes of both candidate buckets in stripe
// order (a single lock when they collide) and returns the unlock.
func (s *Store) lockBuckets(b0, b1 int64) func() {
	i, j := stripesOf(b0, b1)
	s.stripes[i].Lock()
	if j != i {
		s.stripes[j].Lock()
	}
	return func() {
		if j != i {
			s.stripes[j].Unlock()
		}
		s.stripes[i].Unlock()
	}
}

// resolve fills defaults, validates, and derives the layout.
func resolve(opts Options) (Options, layout, error) {
	if opts.Backend == nil {
		return opts, layout{}, errors.New("okv: Options.Backend is required")
	}
	blockSize := opts.Backend.BlockSize()
	if blockSize <= slotHeaderLen {
		return opts, layout{}, fmt.Errorf("okv: block size %d cannot hold a %d-byte slot header", blockSize, slotHeaderLen)
	}
	if opts.SlotsPerBucket == 0 {
		opts.SlotsPerBucket = DefaultSlotsPerBucket
	}
	if opts.SlotsPerBucket < 1 {
		return opts, layout{}, fmt.Errorf("okv: SlotsPerBucket %d must be positive", opts.SlotsPerBucket)
	}
	if opts.MaxValueBytes == 0 {
		opts.MaxValueBytes = 4 * blockSize
	}
	if opts.MaxValueBytes < 1 {
		return opts, layout{}, fmt.Errorf("okv: MaxValueBytes %d must be positive", opts.MaxValueBytes)
	}
	if opts.MaxKeyBytes == 0 {
		opts.MaxKeyBytes = blockSize - slotHeaderLen
	}
	if opts.MaxKeyBytes < 1 || opts.MaxKeyBytes > blockSize-slotHeaderLen {
		return opts, layout{}, fmt.Errorf("okv: MaxKeyBytes %d out of [1,%d]", opts.MaxKeyBytes, blockSize-slotHeaderLen)
	}
	if !opts.Insecure && len(opts.Key) != 32 {
		return opts, layout{}, fmt.Errorf("okv: Key must be 32 bytes, got %d", len(opts.Key))
	}
	extents := (opts.MaxValueBytes + blockSize - 1) / blockSize
	lay := layout{
		slots:     opts.SlotsPerBucket,
		extents:   extents,
		blockSize: blockSize,
		maxKey:    opts.MaxKeyBytes,
		maxValue:  opts.MaxValueBytes,
	}
	lay.buckets = opts.Backend.Blocks() / (int64(opts.SlotsPerBucket) * lay.blocksPerSlot())
	if lay.buckets < 2 {
		return opts, layout{}, fmt.Errorf("okv: backend of %d blocks fits %d buckets of %d slots × %d blocks; need at least 2 (two-choice hashing)",
			opts.Backend.Blocks(), lay.buckets, opts.SlotsPerBucket, lay.blocksPerSlot())
	}
	return opts, lay, nil
}

// hashPRF builds the bucket-hashing PRF.
func hashPRF(opts Options) (*blockcipher.PRF, error) {
	if !opts.Insecure {
		return blockcipher.NewPRF(opts.Key)
	}
	seed := opts.Seed
	if seed == "" {
		seed = "okv-insecure"
	}
	sum := sha256.Sum256([]byte("okv-hash-seed/" + seed))
	return blockcipher.NewPRF(sum[:])
}

// New lays a fresh table over the backend's address space. The
// backend's blocks must all read as zeros (a fresh engine does): a
// zero block decodes as an empty slot, so no initialisation traffic
// is needed.
func New(opts Options) (*Store, error) {
	opts, lay, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	prf, err := hashPRF(opts)
	if err != nil {
		return nil, err
	}
	s := &Store{
		be:  opts.Backend,
		lay: lay,
		prf: prf,
	}
	s.ops.New = func() any { return newOpScratch(lay) }
	return s, nil
}

// Resume re-attaches a Store to a restored backend image. st is the
// directory state the engine manifest carried (engine.RestoredKVState);
// the geometry it echoes must match what opts derives — a mismatch
// would silently re-hash every key to different buckets — and its
// counters are adopted.
func Resume(opts Options, st *snapshot.KVState) (*Store, error) {
	if st == nil {
		return nil, errors.New("okv: restored image carries no KV state (was the store created with the KV layer enabled?)")
	}
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	if err := config.CheckEcho("okv: resume geometry mismatch", []config.Field{
		{Name: "Buckets", Got: s.lay.buckets, Want: st.Buckets},
		{Name: "SlotsPerBucket", Got: s.lay.slots, Want: st.SlotsPerBucket},
		{Name: "MaxValueBytes", Got: s.lay.maxValue, Want: st.MaxValueBytes},
		{Name: "MaxKeyBytes", Got: s.lay.maxKey, Want: st.MaxKeyBytes},
	}); err != nil {
		return nil, err
	}
	s.count = st.Count
	s.gets, s.sets, s.dels, s.misses = st.Gets, st.Sets, st.Dels, st.Misses
	return s, nil
}

// Capacity is the total slot count — the hard upper bound on live
// keys. Two-choice hashing typically sustains ~80% of it before a SET
// first sees ErrTableFull.
func (s *Store) Capacity() int64 { return s.lay.buckets * int64(s.lay.slots) }

// Buckets returns the table's bucket count.
func (s *Store) Buckets() int64 { return s.lay.buckets }

// SlotsPerBucket returns the resolved bucket width.
func (s *Store) SlotsPerBucket() int { return s.lay.slots }

// Len returns the number of live keys.
func (s *Store) Len() int64 {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.count
}

// MaxValueBytes returns the value-length cap.
func (s *Store) MaxValueBytes() int { return s.lay.maxValue }

// MaxKeyBytes returns the key-length cap.
func (s *Store) MaxKeyBytes() int { return s.lay.maxKey }

// Shape returns the fixed per-operation access shape.
func (s *Store) Shape() Shape {
	return Shape{
		LookupReads: 2 * s.lay.slots,
		ExtentReads: s.lay.extents,
		Writes:      1 + s.lay.extents,
	}
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return Stats{
		Count:    s.count,
		Capacity: s.Capacity(),
		Gets:     s.gets,
		Sets:     s.sets,
		Dels:     s.dels,
		Misses:   s.misses,
	}
}

// state renders the directory state for the snapshot manifest. Caller
// holds statMu or has quiesced the store.
func (s *Store) state() snapshot.KVState {
	return snapshot.KVState{
		Buckets:        s.lay.buckets,
		SlotsPerBucket: s.lay.slots,
		MaxValueBytes:  s.lay.maxValue,
		MaxKeyBytes:    s.lay.maxKey,
		Count:          s.count,
		Gets:           s.gets,
		Sets:           s.sets,
		Dels:           s.dels,
		Misses:         s.misses,
	}
}

// Checkpoint quiesces the store — every in-flight operation pipeline
// completes, new ones wait — and runs save with the directory state,
// so the saved state can never sit between the batches of a
// half-finished operation. The intended save function is
// engine.SaveSnapshotKV: the engine then quiesces its shards, levels
// cycle counts, and persists the block image and this record at one
// checkpoint cut.
func (s *Store) Checkpoint(save func(*snapshot.KVState) error) error {
	s.quiesce.Lock()
	defer s.quiesce.Unlock()
	st := s.state()
	return save(&st)
}

// validateKey refuses malformed keys before any block traffic.
// Validity depends only on the request itself, never on table state.
func (s *Store) validateKey(key []byte) error {
	if len(key) < 1 || len(key) > s.lay.maxKey {
		return fmt.Errorf("%w: %d bytes, cap %d", ErrKeyInvalid, len(key), s.lay.maxKey)
	}
	return nil
}

// buckets returns the key's two candidate buckets under the keyed
// PRF. They may coincide; the pipeline reads both runs regardless, so
// the shape does not change.
func (s *Store) buckets(key []byte) (int64, int64) {
	b0 := int64(s.prf.Uint64("okv-bucket-0|", key, 0) % uint64(s.lay.buckets))
	b1 := int64(s.prf.Uint64("okv-bucket-1|", key, 0) % uint64(s.lay.buckets))
	return b0, b1
}

// dummySlot picks the miss path's target among the 2S candidate
// slots, keyed by the PRF so it is deterministic per key but
// structureless across keys.
func (s *Store) dummySlot(key []byte) int {
	return int(s.prf.Uint64("okv-dummy|", key, 0) % uint64(2*s.lay.slots))
}

// opKind discriminates the three public operations inside the shared
// fixed pipeline.
type opKind int

const (
	opGet opKind = iota
	opSet
	opDel
)

// access is the one fixed pipeline every operation runs: 2S slot
// reads, E extent reads of the target slot, then 1 slot write + E
// extent writes. Only the CONTENT of batch 3 depends on the op kind
// and lookup outcome; the batch sizes, op mix and ordering never do.
func (s *Store) access(kind opKind, key, value []byte) (val []byte, found bool, err error) {
	s.quiesce.RLock()
	defer s.quiesce.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}

	S := s.lay.slots
	b0, b1 := s.buckets(key)
	unlock := s.lockBuckets(b0, b1)
	defer unlock()

	sc := s.ops.Get().(*opScratch)
	defer s.ops.Put(sc)

	// Batch 1: read both candidate buckets' slot blocks.
	n := 0
	for _, b := range [2]int64{b0, b1} {
		for j := 0; j < S; j++ {
			idx := s.lay.slotIndex(b, j)
			sc.slotIdx[n] = idx
			sc.lookupRs[n] = core.Request{Op: core.OpRead, Addr: s.lay.slotAddr(idx)}
			n++
		}
	}
	if err := s.be.Batch(sc.lookups); err != nil {
		return nil, false, fmt.Errorf("okv: lookup batch: %w", err)
	}
	// A block of the wrong size breaks the backend's contract; lengths
	// are public, so this check may branch.
	for i := range sc.lookupRs {
		if n := len(sc.lookupRs[i].Result); n != s.lay.blockSize {
			return nil, false, fmt.Errorf("okv: slot %d of bucket %d: %w: %d bytes, want %d",
				i%S, sc.slotIdx[i]/int64(S), ErrCorruptSlot, n, s.lay.blockSize)
		}
	}
	sel := s.selectTarget(sc, kind, key)
	// Table damage stops the op before batch 2, so a damaged table is
	// never overwritten. This is the one branch on slot contents.
	if sel.corrupt == 1 {
		return nil, false, fmt.Errorf("okv: slot %d of bucket %d: %w",
			sel.badIdx%int64(S), sel.badIdx/int64(S), ErrCorruptSlot)
	}
	found = sel.found == 1

	// Batch 2: read the target slot's fixed extent run. On the miss
	// and full paths this is the dummy read that keeps the shape.
	for j := range sc.extRs {
		sc.extRs[j] = core.Request{Op: core.OpRead, Addr: s.lay.extentAddr(sel.tIdx, j)}
	}
	if err := s.be.Batch(sc.extReads); err != nil {
		return nil, false, fmt.Errorf("okv: extent batch: %w", err)
	}

	// Batch 3's contents: the bytes just read (a semantic no-op — the
	// ORAM re-encrypts every write, so it is bus-indistinguishable
	// from a mutation), overlaid by the op's outcome.
	slotData := s.composeWrites(sc, kind, key, value, sel.found, sel.full, sel.valLen, &val)

	// Batch 3: one slot write plus the extent run.
	sc.writeRs[0] = core.Request{Op: core.OpWrite, Addr: s.lay.slotAddr(sel.tIdx), Data: slotData}
	for j, d := range sc.extWrite {
		sc.writeRs[1+j] = core.Request{Op: core.OpWrite, Addr: s.lay.extentAddr(sel.tIdx, j), Data: d}
	}
	if err := s.be.Batch(sc.writes); err != nil {
		return nil, false, fmt.Errorf("okv: write batch: %w", err)
	}

	// Counters after the pipeline completed.
	s.statMu.Lock()
	defer s.statMu.Unlock()
	switch kind {
	case opGet:
		s.gets++
		if !found {
			s.misses++
		}
	case opSet:
		s.sets++
		if sel.full == 1 {
			return nil, false, fmt.Errorf("%w (capacity %d, %d live keys)", ErrTableFull, s.Capacity(), s.count)
		}
		if !found {
			s.count++
		}
	case opDel:
		s.dels++
		if found {
			s.count--
		} else {
			s.misses++
		}
	}
	return val, found, nil
}

// selection is selectTarget's outcome. found, full and corrupt are
// 0/1 masks; they become caller-visible only after the pipeline
// completes (corrupt stops it after batch 1).
type selection struct {
	tIdx    int64 // target's global slot index
	found   int
	full    int
	valLen  int   // the target's value length on a hit, else 0
	corrupt int   // some candidate slot failed the validity mask
	badIdx  int64 // global slot index of the first such slot in scan order
}

// selectTarget picks the op's target slot in one fixed-order pass over
// all 2S candidate slots with masked compares: the first key match in
// scan order; otherwise for SET the freer bucket (ties to b0) and its
// first free slot; otherwise the PRF dummy. It gathers the target's
// global slot index and read-back bytes without a secret-indexed load,
// and folds every candidate's validity mask (slotState) into corrupt.
// The op kind is the caller's own request and so public; everything
// derived from slot contents flows through 0/1 masks.
//
//horam:constant-time
//horam:secret key raw
func (s *Store) selectTarget(sc *opScratch, kind opKind, key []byte) selection {
	S := s.lay.slots
	// Probe key, zero-padded to the fixed compare window. Slot blocks
	// zero-pad the key region past klen too (encodeSlotInto, and a
	// fresh or scrubbed block is all zeros), so a full-window compare
	// plus a length check is an exact key match even for keys with
	// trailing zero bytes.
	clear(sc.keyBuf[copy(sc.keyBuf, key):])
	tgt, badAt := 0, 0
	fnd, valLen, bad := 0, 0, 0
	free0, free1 := 0, 0
	for i := 0; i < 2*S; i++ {
		raw := sc.lookupRs[i].Result
		occ, ok := s.lay.slotState(raw)
		klen, vlen := slotLens(raw)
		first := (ok ^ 1) & (bad ^ 1) // first damaged slot in scan order
		badAt = ctops.SelectInt(first, i, badAt)
		bad |= ok ^ 1
		sc.occs[i] = occ
		keyEq := occ & ctops.EqInt(klen, len(key)) &
			subtle.ConstantTimeCompare(raw[slotHeaderLen:slotHeaderLen+s.lay.maxKey], sc.keyBuf)
		m := keyEq & (fnd ^ 1) // first match in scan order wins
		tgt = ctops.SelectInt(m, i, tgt)
		valLen = ctops.SelectInt(m, vlen, valLen)
		fnd |= m
		if i < S { // public: loop index
			free0 += occ ^ 1
		} else {
			free1 += occ ^ 1
		}
	}

	// Miss-path target: first free slot of the freer half for SET,
	// the PRF dummy otherwise (and for SET when both halves are
	// full). hasFree doubles as the not-full mask.
	half := ctops.LtInt(free0, free1) // free1 > free0 selects bucket 1
	firstFree, hasFree := 0, 0
	for i := 0; i < 2*S; i++ {
		inHalf := ctops.EqInt(i/S, half)
		pick := inHalf & (sc.occs[i] ^ 1) & (hasFree ^ 1)
		firstFree = ctops.SelectInt(pick, i, firstFree)
		hasFree |= pick
	}
	full := 0
	dummy := s.dummySlot(key) // stateless PRF: computing it on every path is free
	if kind == opSet {        // public: the caller's own op kind
		full = (fnd ^ 1) & (hasFree ^ 1)
		ins := ctops.SelectInt(full, dummy, firstFree)
		tgt = ctops.SelectInt(fnd, tgt, ins)
	} else {
		tgt = ctops.SelectInt(fnd, tgt, dummy)
	}

	// Gather the target's and the first damaged slot's global indices,
	// and the target's read-back bytes, with a full masked pass instead
	// of indexing by a secret position.
	var tIdx, badIdx int64
	for i := 0; i < 2*S; i++ {
		m := ctops.EqInt(i, tgt)
		tIdx = ctops.Select64(m, sc.slotIdx[i], tIdx)
		badIdx = ctops.Select64(ctops.EqInt(i, badAt), sc.slotIdx[i], badIdx)
		ctops.CopyBytes(m, sc.slotRead, sc.lookupRs[i].Result)
	}
	return selection{tIdx: tIdx, found: fnd, full: full, valLen: valLen, corrupt: bad, badIdx: badIdx}
}

// composeWrites fills the batch-3 payload buffers (sc.writeSlot,
// sc.extWrite) with masked copies: every op stages the gathered
// read-back bytes, then the outcome mask overlays the freshly encoded
// slot/value run. For GET it also produces the caller's value;
// trimming it to the hit/miss outcome is a branch on the op's own
// return value, not on hidden state.
//
//horam:constant-time
//horam:secret key value
func (s *Store) composeWrites(sc *opScratch, kind opKind, key, value []byte, fnd, full, valLen int, val *[]byte) []byte {
	copy(sc.writeSlot, sc.slotRead)
	for j := range sc.extWrite {
		copy(sc.extWrite[j], sc.extRs[j].Result)
	}
	switch kind { // public: the caller's own op kind
	case opSet:
		s.lay.encodeSlotInto(sc.slotBuf, key, len(value))
		s.lay.encodeValueInto(sc.extBufs, value)
		use := full ^ 1
		ctops.CopyBytes(use, sc.writeSlot, sc.slotBuf)
		for j := range sc.extWrite {
			ctops.CopyBytes(use, sc.extWrite[j], sc.extBufs[j])
		}
	case opDel:
		// Vacate the slot and scrub the extents (masked: an absent
		// key rewrites the dummy slot's bytes unchanged).
		for i := range sc.slotBuf {
			sc.slotBuf[i] = 0
		}
		s.lay.encodeValueInto(sc.extBufs, nil)
		ctops.CopyBytes(fnd, sc.writeSlot, sc.slotBuf)
		for j := range sc.extWrite {
			ctops.CopyBytes(fnd, sc.extWrite[j], sc.extBufs[j])
		}
	case opGet:
		v := s.lay.decodeValue(sc.extWrite, valLen)
		if fnd == 1 { // the hit/miss outcome is returned to the caller
			*val = v
		}
	}
	return sc.writeSlot
}

// Get looks key up, returning ok=false when absent. A miss runs the
// same fixed pipeline as a hit.
func (s *Store) Get(key []byte) (value []byte, ok bool, err error) {
	if err := s.validateKey(key); err != nil {
		return nil, false, err
	}
	return s.access(opGet, key, nil)
}

// Set inserts or updates key. Values up to MaxValueBytes (inclusive)
// are padded to the fixed extent run; longer ones are refused before
// any block traffic. When both candidate buckets are full the fixed
// pipeline still runs to completion and ErrTableFull is returned.
func (s *Store) Set(key, value []byte) error {
	if err := s.validateKey(key); err != nil {
		return err
	}
	if len(value) > s.lay.maxValue {
		return fmt.Errorf("%w: %d bytes, cap %d", ErrValueTooLarge, len(value), s.lay.maxValue)
	}
	_, _, err := s.access(opSet, key, value)
	return err
}

// Del removes key, reporting whether it existed. Deleting an absent
// key is a no-op with the same access shape as a real deletion.
func (s *Store) Del(key []byte) (existed bool, err error) {
	if err := s.validateKey(key); err != nil {
		return false, err
	}
	_, found, err := s.access(opDel, key, nil)
	return found, err
}
