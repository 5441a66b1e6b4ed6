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
// # Residual channels
//
// The op COUNT is observable, as it is for any client of the block
// store. Input validation (empty/oversized key, oversized value) is
// refused before any block traffic; validity depends only on the
// request itself, never on secret table state, so the refusal reveals
// nothing an adversary did not already know. ErrTableFull is returned
// only AFTER the full fixed pipeline has run.
package okv

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
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
	// ConstantTime makes the trusted-memory half of every operation
	// branchless on secret state: target-slot selection scans all 2S
	// candidates with masked compares (crypto/subtle) instead of
	// breaking at the first match, and batch-3 contents are composed
	// with masked copies. The backend request stream is byte-for-byte
	// identical to the default mode; only the CPU-side timing channel
	// closes. Pair it with the engine's config.WithConstantTime so
	// the block layer below is hardened too.
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
	ct  bool // constant-time selection and batch-3 composition

	quiesce sync.RWMutex            // ops hold R; Checkpoint/Close hold W
	stripes [lockStripes]sync.Mutex // bucket-striped op exclusion
	closed  bool                    // written under quiesce.W, read under .R

	// ops pools per-operation pipeline scratch (request structs,
	// decoded entries, batch-3 encode buffers) so the steady-state op
	// path allocates nothing beyond the value returned to the caller.
	ops sync.Pool

	statMu sync.Mutex
	count  int64
	gets   int64
	sets   int64
	dels   int64
	misses int64
}

// opScratch holds one operation's fixed pipeline state: the request
// structs and pointer slices of all three batches, the decoded slot
// entries, and the batch-3 encode buffers. Shapes depend only on the
// layout, so a pooled scratch serves any op. The pointer slices are
// wired to the request arrays once, at construction; each use resets
// the request structs wholesale (which also clears the scheduler's
// internal completion mark).
type opScratch struct {
	slotIdx  []int64
	entries  []slotEntry
	lookupRs []core.Request
	lookups  []*core.Request
	extRs    []core.Request
	extReads []*core.Request
	writeRs  []core.Request
	writes   []*core.Request
	extData  [][]byte // batch-3 extent payload views
	slotBuf  []byte   // batch-3 slot encode / delete scrub
	extBufs  [][]byte // batch-3 extent encodes, one backing slab

	// Constant-time mode scratch: the padded probe key, per-candidate
	// occupancy masks, the gathered target slot read-back, and the
	// masked-composed batch-3 payloads.
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
		entries:   make([]slotEntry, 2*S),
		lookupRs:  make([]core.Request, 2*S),
		lookups:   make([]*core.Request, 2*S),
		extRs:     make([]core.Request, E),
		extReads:  make([]*core.Request, E),
		writeRs:   make([]core.Request, 1+E),
		writes:    make([]*core.Request, 1+E),
		extData:   make([][]byte, E),
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
	ctBacking := make([]byte, E*lay.blockSize)
	for j := range sc.extWrite {
		sc.extWrite[j] = ctBacking[j*lay.blockSize : (j+1)*lay.blockSize]
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
		ct:  opts.ConstantTime,
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
	b0 := int64(s.prf.Uint64("okv-bucket-0|"+string(key), 0) % uint64(s.lay.buckets))
	b1 := int64(s.prf.Uint64("okv-bucket-1|"+string(key), 0) % uint64(s.lay.buckets))
	return b0, b1
}

// dummySlot picks the miss path's target among the 2S candidate
// slots, keyed by the PRF so it is deterministic per key but
// structureless across keys.
func (s *Store) dummySlot(key []byte) int {
	return int(s.prf.Uint64("okv-dummy|"+string(key), 0) % uint64(2*s.lay.slots))
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
	// Classify and pick the target slot. Every path lands on exactly
	// one of the 2S candidates. Both selectors make the same
	// decisions (first key match in scan order; the freer bucket with
	// ties to b0, then its first free slot; the PRF dummy on miss or
	// full) so the two modes issue byte-identical backend traffic —
	// they differ only in whether the scan branches on slot contents.
	var (
		target     int
		tIdx       int64 // target's global slot index
		full       bool
		valLen     int
		fndM, fulM int // CT-mode 0/1 masks for found/full
	)
	if s.ct {
		tIdx, fndM, fulM, valLen = s.selectTargetCT(sc, kind, key)
		found = fndM == 1
		full = fulM == 1
	} else {
		entries := sc.entries
		for i := range sc.lookupRs {
			e, err := s.lay.decodeSlot(sc.lookupRs[i].Result)
			if err != nil {
				return nil, false, fmt.Errorf("okv: slot %d of bucket %d: %w", i%S, sc.slotIdx[i]/int64(S), err)
			}
			entries[i] = e
		}
		target = -1
		for i, e := range entries {
			if e.occupied && bytes.Equal(e.key, key) {
				target = i
				found = true
				break
			}
		}
		if !found {
			if kind == opSet {
				// Two-choice insert: the bucket with more free slots
				// wins (ties to b0), then its first free slot.
				free := [2]int{}
				for i, e := range entries {
					if !e.occupied {
						free[i/S]++
					}
				}
				half := 0
				if free[1] > free[0] {
					half = 1
				}
				if free[half] == 0 {
					full = true
					target = s.dummySlot(key)
				} else {
					for j := 0; j < S; j++ {
						if !entries[half*S+j].occupied {
							target = half*S + j
							break
						}
					}
				}
			} else {
				target = s.dummySlot(key)
			}
		}
		if found {
			valLen = entries[target].valLen
		}
		tIdx = sc.slotIdx[target]
	}

	// Batch 2: read the target slot's fixed extent run. On the miss
	// and full paths this is the dummy read that keeps the shape.
	for j := range sc.extRs {
		sc.extRs[j] = core.Request{Op: core.OpRead, Addr: s.lay.extentAddr(tIdx, j)}
	}
	if err := s.be.Batch(sc.extReads); err != nil {
		return nil, false, fmt.Errorf("okv: extent batch: %w", err)
	}

	// Compute batch 3's contents: by default write back the exact
	// bytes just read (a semantic no-op — the ORAM re-encrypts every
	// write, so it is bus-indistinguishable from a mutation).
	var slotData []byte
	extData := sc.extData
	for j := range sc.extRs {
		extData[j] = sc.extRs[j].Result
	}
	if s.ct {
		slotData = s.composeWritesCT(sc, kind, key, value, fndM, fulM, valLen, &val)
		extData = sc.extWrite
	} else {
		slotData = sc.lookupRs[target].Result
		switch {
		case kind == opSet && !full:
			s.lay.encodeSlotInto(sc.slotBuf, key, len(value))
			s.lay.encodeValueInto(sc.extBufs, value)
			slotData = sc.slotBuf
			copy(extData, sc.extBufs)
		case kind == opDel && found:
			// Vacate the slot and scrub the extents so deleted values
			// do not linger in the (encrypted) block image.
			for i := range sc.slotBuf {
				sc.slotBuf[i] = 0
			}
			s.lay.encodeValueInto(sc.extBufs, nil)
			slotData = sc.slotBuf
			copy(extData, sc.extBufs)
		case kind == opGet && found:
			val = s.lay.decodeValue(extData, valLen)
		}
	}

	// Batch 3: one slot write plus the extent run.
	sc.writeRs[0] = core.Request{Op: core.OpWrite, Addr: s.lay.slotAddr(tIdx), Data: slotData}
	for j, d := range extData {
		sc.writeRs[1+j] = core.Request{Op: core.OpWrite, Addr: s.lay.extentAddr(tIdx, j), Data: d}
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
		if full {
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

// selectTargetCT is the constant-time selector: one fixed-order pass
// over all 2S candidate slots with masked compares picks the same
// target the branching selector would — first key match in scan
// order; otherwise for SET the freer bucket (ties to b0) and its
// first free slot; otherwise the PRF dummy — and gathers the target's
// global slot index and read-back bytes without a secret-indexed
// load. The op kind is the caller's own request and so public;
// everything derived from slot contents flows through 0/1 masks.
// Returned found/full are 0/1 masks (they become caller-visible
// outputs only after the pipeline completes).
//
//horam:constant-time
//horam:secret key raw
func (s *Store) selectTargetCT(sc *opScratch, kind opKind, key []byte) (tIdx int64, fnd, full, valLen int) {
	S := s.lay.slots
	// Probe key, zero-padded to the fixed compare window. Slot blocks
	// zero-pad the key region past klen too (encodeSlotInto, and a
	// fresh or scrubbed block is all zeros), so a full-window compare
	// plus a length check is an exact key match even for keys with
	// trailing zero bytes.
	n := copy(sc.keyBuf, key)
	for i := n; i < len(sc.keyBuf); i++ {
		sc.keyBuf[i] = 0
	}
	tgt := 0
	free0, free1 := 0, 0
	for i := 0; i < 2*S; i++ {
		raw := sc.lookupRs[i].Result
		occ := int(subtle.ConstantTimeByteEq(raw[0], slotOccupied))
		sc.occs[i] = occ
		klen := int(binary.BigEndian.Uint16(raw[1:3]))
		keyEq := occ & ctops.EqInt(klen, len(key)) &
			subtle.ConstantTimeCompare(raw[slotHeaderLen:slotHeaderLen+s.lay.maxKey], sc.keyBuf)
		m := keyEq & (fnd ^ 1) // first match in scan order wins
		tgt = ctops.SelectInt(m, i, tgt)
		valLen = ctops.SelectInt(m, int(binary.BigEndian.Uint32(raw[3:7])), valLen)
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
	dummy := s.dummySlot(key) // stateless PRF: computing it on every path is free
	if kind == opSet {        // public: the caller's own op kind
		full = (fnd ^ 1) & (hasFree ^ 1)
		ins := ctops.SelectInt(full, dummy, firstFree)
		tgt = ctops.SelectInt(fnd, tgt, ins)
	} else {
		tgt = ctops.SelectInt(fnd, tgt, dummy)
	}

	// Gather the target's slot index and read-back bytes with a full
	// masked pass instead of indexing by the secret tgt.
	for i := 0; i < 2*S; i++ {
		m := ctops.EqInt(i, tgt)
		tIdx = ctops.Select64(m, sc.slotIdx[i], tIdx)
		ctops.CopyBytes(m, sc.slotRead, sc.lookupRs[i].Result)
	}

	// Clamp the gathered value length arithmetically: the default
	// selector relies on decodeSlot validation, which the masked scan
	// skips (the sealer authenticates blocks, so an out-of-range
	// length means table damage, not attacker input).
	valLen = ctops.SelectInt(fnd, valLen, 0)
	valLen = ctops.SelectInt(ctops.LtInt(s.lay.maxValue, valLen), s.lay.maxValue, valLen)
	return tIdx, fnd, full, valLen
}

// composeWritesCT fills the batch-3 payload buffers (sc.writeSlot,
// sc.extWrite) with masked copies: every op stages the gathered
// read-back bytes, then the outcome mask overlays the freshly encoded
// slot/value run. The staged bytes equal what the default mode writes
// in every case — only the composition is branchless. For GET it also
// produces the caller's value; trimming it to the hit/miss outcome is
// a branch on the op's own return value, not on hidden state.
//
//horam:constant-time
//horam:secret key value
func (s *Store) composeWritesCT(sc *opScratch, kind opKind, key, value []byte, fnd, full, valLen int, val *[]byte) []byte {
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
