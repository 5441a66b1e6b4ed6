package horam

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/posmap"
	"repro/internal/record"
	"repro/internal/shuffle"
	"repro/internal/stash"
)

// ErrPoisoned marks an instance whose shuffle failed mid-flight. A
// failed shuffle leaves partitions partially rewritten, the shuffle
// cursor advanced and the in-memory control state out of step with the
// device image, so no later operation can be trusted: the instance is
// poisoned and every subsequent entry point returns an error wrapping
// this sentinel. Recovery is a Restore from the last good snapshot
// (the generation marker refuses the torn storage image) or a fresh
// New.
var ErrPoisoned = errors.New("horam: instance poisoned by failed shuffle")

// shuffleState is the incremental shuffle state machine: the in-flight
// period's trusted pool and progress cursors. The paper (§4.3) ends
// each access period with one stop-the-world pass — oblivious tree
// evict, then group & partition shuffle over the window, then a fresh
// empty tree and touched-bit state. Here that period is deamortized:
// one quantum — the tree evict, or a single partition rewrite —
// executes per shuffle-mode scheduler cycle, so the period's
// O(window·partition) device work is spread across O(window) cycles
// instead of landing in one. With ShuffleRatio r < 1 only ⌈r·√N⌉
// partitions form the window each period (§5.3.1), cycling
// round-robin; slack slots absorb the extra hot data until each
// partition's next turn.
//
// A pool block's permutation-list entry is TierPool with its pool
// index as Slot, so the list stays the one record of where every block
// lives; the partition quantum that absorbs the block sets its new
// storage slot.
type shuffleState struct {
	active   bool
	evicted  bool          // the tree-evict quantum has run
	pool     []stash.Block // evicted blocks awaiting placement
	poolIdx  int
	shuffled int64 // partitions rewritten this period
	window   int64
}

// poison records the first shuffle failure; all later entry points
// fail with an error wrapping ErrPoisoned.
func (o *ORAM) poison(cause error) {
	if o.poisoned == nil {
		o.poisoned = fmt.Errorf("%w: %v", ErrPoisoned, cause)
	}
}

// shuffleWindow returns the number of partitions the current period
// must rewrite: all of them, or ⌈r·P⌉ with partial shuffling (§5.3.1).
func (o *ORAM) shuffleWindow() int64 {
	window := o.partitions
	if o.cfg.ShuffleRatio > 0 && o.cfg.ShuffleRatio < 1 {
		window = int64(float64(o.partitions)*o.cfg.ShuffleRatio + 0.5)
		if window < 1 {
			window = 1
		}
	}
	return window
}

// evictTree is the oblivious tree evict, the first quantum of every
// shuffle period: the whole memory tree (real + dummy slots) is
// scanned into a trusted buffer, shuffled, and the dummies dropped, so
// the scan order reveals nothing about which slots were real. DrainAll
// performs the full sequential scan on the memory device (charging its
// time); the uniform shuffle stands in for the oblivious buffer
// shuffle — inside trusted memory any uniform permutation is
// admissible.
func (o *ORAM) evictTree() ([]stash.Block, error) {
	evicted, err := o.mem.DrainAll()
	if err != nil {
		return nil, err
	}
	o.stats.EvictedReal += int64(len(evicted))
	return shuffle.Apply(shuffle.Random(len(evicted), o.cfg.RNG), evicted), nil
}

// beginShuffle arms the incremental state machine. The new access
// period's miss budget opens immediately: the loads issued by the
// shuffle-mode cycles that follow fill the freshly emptied tree and
// count against it, exactly as the loads after a stop-the-world pass
// would.
func (o *ORAM) beginShuffle() {
	o.sm = shuffleState{active: true, window: o.shuffleWindow()}
	o.missCount = 0
}

// shuffleQuantum executes one bounded slice of the in-flight period:
// the first quantum is the oblivious tree evict into the trusted pool;
// every later quantum rewrites exactly one partition, absorbing the
// next piece of the pool. The bus shape of each quantum is fixed — a
// sequential tree scan, or one sequential partition read + rewrite —
// independent of the real/dummy mix, so spreading the period across
// cycles reveals nothing a stop-the-world pass would not. Callers charge
// it to the "shuffle" accounting bucket via serial.
//
// Observability (SetObs) wraps the real work: the wall-clock duration
// of each quantum feeds the Timing-class quantum histogram, and a
// span tagged with the cycle/quantum indices lands in the trace
// buffer. Both are nil-safe no-ops when unwired, and the wall clock
// is only read when an observer is attached.
func (o *ORAM) shuffleQuantum() error {
	if o.obsQuantum == nil && !o.obsTracer.Enabled() {
		return o.runShuffleQuantum()
	}
	sp := o.obsTracer.Begin("quantum", o.obsTid)
	start := time.Now()
	err := o.runShuffleQuantum()
	o.obsQuantum.ObserveDuration(time.Since(start))
	sp.End(obs.Arg{Key: "cycle", Val: o.stats.Cycles},
		obs.Arg{Key: "quantum", Val: o.stats.ShuffleQuanta})
	return err
}

func (o *ORAM) runShuffleQuantum() error {
	o.inShuffle = true
	defer func() { o.inShuffle = false }()
	o.stats.ShuffleQuanta++

	if !o.sm.evicted {
		pool, err := o.evictTree()
		if err != nil {
			return err
		}
		o.sm.pool = pool
		for i, b := range pool {
			if err := o.perm.SetPool(b.Addr, i); err != nil {
				return err
			}
		}
		o.sm.evicted = true
		// Storage slots are only ever written by the partition
		// quanta that follow, so bracketing them with generation
		// marks gives the persistence layer an exact consistency
		// witness: started > completed on disk means a crash tore
		// this very period.
		if o.cfg.ShuffleMark != nil {
			if err := o.cfg.ShuffleMark(o.shuffleGen+1, false); err != nil {
				return err
			}
		}
		return nil
	}

	if o.sm.shuffled >= o.partitions && o.sm.poolIdx < len(o.sm.pool) {
		// Every partition visited and hot data still homeless: the
		// slack sizing is insufficient (cannot happen with the shipped
		// factors; guard against config drift).
		return fmt.Errorf("horam: shuffle could not place %d evicted blocks", len(o.sm.pool)-o.sm.poolIdx)
	}
	p := o.nextPart
	o.nextPart = (o.nextPart + 1) % o.partitions
	if err := o.shufflePartition(p); err != nil {
		return err
	}
	o.sm.shuffled++

	if o.sm.shuffled >= o.sm.window && o.sm.poolIdx >= len(o.sm.pool) {
		o.stats.PartShuffled += o.sm.shuffled
		o.stats.Shuffles++
		o.sm = shuffleState{}
		// The loads issued while the shuffle was in flight already
		// belong to the new period, so missCount is NOT reset here —
		// beginShuffle opened the new budget.
		return o.endShufflePeriod()
	}
	return nil
}

// endShufflePeriod is the shared period epilogue: fresh touched-bit
// state, a repositioned storage head, and the durable generation
// marker (the generation's writes are synced before the marker
// declares them durable).
func (o *ORAM) endShufflePeriod() error {
	o.perm.ResetPeriod()
	o.storDev.ResetHead() // the next access is positioning-random
	o.shuffleGen++
	if o.cfg.ShuffleMark != nil {
		if err := o.SyncStorage(); err != nil {
			return err
		}
		if err := o.cfg.ShuffleMark(o.shuffleGen, true); err != nil {
			return err
		}
	}
	return nil
}

// FinishShuffle drives the in-flight incremental shuffle to
// completion, one quantum at a time (a no-op when none is pending).
// Quiesce points use it: a snapshot must sit at a period boundary, and
// finishing the pending quanta — rather than persisting the mid-flight
// pool — keeps the on-disk generation-marker protocol at whole
// periods: one started/completed marker pair brackets each period.
// Quanta run outside scheduler cycles here, so the cycle counter does
// not move and a leveled multi-shard engine stays leveled.
func (o *ORAM) FinishShuffle() error {
	if o.poisoned != nil {
		return o.poisoned
	}
	for o.sm.active {
		if err := o.serial("shuffle", o.shuffleQuantum); err != nil {
			o.poison(err)
			return err
		}
	}
	return nil
}

// shufflePartition reshuffles partition p, absorbing as much of the
// in-flight period's evicted pool (from o.sm.poolIdx on) as fits.
//
// The quantum runs entirely in the instance's persistent scratch: the
// partition is fetched with one vectored ReadSlots burst, the records
// are opened and re-sealed as one run each (nonces are drawn serially
// in slot order, so the bytes match the serial implementation
// exactly), and written back with one WriteSlots burst.
// The meter charges and hook events are per slot in slot order either
// way — the bus-visible sequence is unchanged.
func (o *ORAM) shufflePartition(p int64) error {
	base := p * o.partSlots
	sc := o.shufScratchFor(o.partSlots)

	// Sequential read: one burst for the whole partition, then a
	// parallel open into the read-phase plaintext slab.
	for i := int64(0); i < o.partSlots; i++ {
		sc.slots[i] = base + i
	}
	if err := o.storDev.ReadSlots(sc.slots, sc.sealedV); err != nil {
		return err
	}
	if err := o.codec.OpenRun(sc.readPt, sc.sealedV); err != nil {
		return err
	}

	// Collect live cold blocks. A slot is live iff the permutation
	// list still maps its block here — blocks fetched to memory this
	// (or an earlier partial-shuffle) period left stale ciphertext
	// behind. Payloads alias the read slab; the write phase encodes
	// into a separate slab, so no copy is needed.
	blocks := sc.recs[:0]
	for i := int64(0); i < o.partSlots; i++ {
		addr, payload := o.codec.Decode(sc.readPt[i])
		if addr == record.DummyAddr {
			continue
		}
		e, err := o.perm.Lookup(addr)
		if err != nil {
			return err
		}
		if e.Tier != posmap.TierStorage || e.Slot != base+i {
			continue // stale copy
		}
		blocks = append(blocks, shufRec{addr, payload})
	}

	// Concatenate the next piece of evicted hot data. Absorbed blocks
	// leave the pool when the SetStorage pass below places them:
	// requests for them are storage misses again, not pool hits.
	for int64(len(blocks)) < o.partSlots && o.sm.poolIdx < len(o.sm.pool) {
		b := o.sm.pool[o.sm.poolIdx]
		o.sm.poolIdx++
		blocks = append(blocks, shufRec{b.Addr, b.Data})
	}
	sc.recs = blocks[:0]

	// Cache shuffle in trusted memory, then sequential write-back
	// under a fresh intra-partition permutation: encode every slot's
	// plaintext in slot order, batch-seal (nonce order = slot order),
	// one vectored write burst, then the permutation-list updates.
	permIdx := o.cfg.RNG.Perm(int(o.partSlots))
	for i := range sc.slotOf {
		sc.slotOf[i] = -1
	}
	for i := range blocks {
		sc.slotOf[permIdx[i]] = i
	}
	for i, bi := range sc.slotOf {
		if bi >= 0 {
			o.codec.Encode(sc.writePt[i], blocks[bi].addr, blocks[bi].data)
		} else {
			copy(sc.writePt[i], o.codec.DummyPt())
		}
	}
	if err := o.codec.SealRun(sc.writePt, sc.sealedV); err != nil {
		return err
	}
	if err := o.storDev.WriteSlots(sc.slots, sc.sealedV); err != nil {
		return err
	}
	for i, bi := range sc.slotOf {
		if bi >= 0 {
			if err := o.perm.SetStorage(blocks[bi].addr, base+int64(i)); err != nil {
				return err
			}
		}
	}
	return nil
}
