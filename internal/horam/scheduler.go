package horam

import (
	"bytes"
	"fmt"

	"repro/internal/pathoram"
	"repro/internal/posmap"
)

// Submit queues requests into the ROB table without executing them.
// Data slices for writes are copied. A malformed request anywhere in
// reqs rejects them all: nothing is queued, so no valid request of a
// failed submission runs later.
func (o *ORAM) Submit(reqs ...*Request) error {
	if o.poisoned != nil {
		return o.poisoned
	}
	for _, r := range reqs {
		if r == nil {
			return fmt.Errorf("horam: nil request")
		}
		if r.Addr < 0 || r.Addr >= o.cfg.Blocks {
			return fmt.Errorf("horam: address %d out of range [0,%d)", r.Addr, o.cfg.Blocks)
		}
		if r.Op == OpWrite && len(r.Data) != o.cfg.BlockSize {
			return fmt.Errorf("horam: write payload %d bytes, want %d", len(r.Data), o.cfg.BlockSize)
		}
	}
	for _, r := range reqs {
		if r.Op == OpWrite {
			r.Data = bytes.Clone(r.Data)
		}
		r.done = false
		r.SubmitSim = o.clk.Now()
		r.DoneSim = 0
		o.rob = append(o.rob, r)
	}
	return nil
}

// Pending returns the number of queued, uncompleted requests.
func (o *ORAM) Pending() int { return len(o.rob) }

// abandonROB empties the ROB after a failed drain. The slots are
// nilled before truncating: reslicing alone would retain the abandoned
// *Request pointers — and their copied write payloads — in the backing
// array until overwritten, pinning them against collection for as long
// as the instance lives.
func (o *ORAM) abandonROB() {
	for i := range o.rob {
		o.rob[i] = nil
	}
	o.rob = o.rob[:0]
}

// Drain runs scheduler cycles until the ROB table is empty. Each
// cycle issues exactly one storage load (a real miss from the window
// when available, a random prefetch otherwise) overlapped with exactly
// c memory-tier path accesses (hits from the window, padded with
// dummies), so every cycle shows the adversary the same shape
// regardless of the actual hit/miss mix (§4.2). A miss is served by
// its load: it completes in the cycle that fetches it, like a hit, so
// a lone request takes one cycle either way. In the default
// incremental shuffle mode a cycle additionally carries one shuffle
// quantum while a period is in flight; quanta left over when the ROB
// empties ride along with later cycles.
//
// A failed drain abandons the requests still queued: their submitters
// observe the error (core.Flush completes every queued future with
// it), so leaving them in the ROB would only have a later drain serve
// requests nobody is waiting on — and block PadToCycles.
func (o *ORAM) Drain() error {
	if o.poisoned != nil {
		o.abandonROB()
		return o.poisoned
	}
	for len(o.rob) > 0 {
		if err := o.cycle(); err != nil {
			o.abandonROB()
			return err
		}
	}
	return nil
}

// PadToCycles runs dummy scheduler cycles until the cumulative cycle
// counter (Stats().Cycles) reaches target. A dummy cycle is an
// ordinary cycle run with an empty ROB — one random prefetch load
// overlapped with c dummy memory paths — so on the bus it is
// indistinguishable from a cycle serving real requests, and it
// consumes miss budget, triggers shuffles and advances in-flight
// shuffle quanta exactly like one. internal/engine uses this to
// equalise per-shard cycle counts at batch boundaries, closing the
// cross-shard traffic-volume channel; a shard that goes quiescent
// mid-shuffle levels like any other, because quanta progress is a
// deterministic function of the cycle count. The ROB must be empty:
// padding is defined between batches, not in the middle of one. It
// returns the number of dummy cycles run.
func (o *ORAM) PadToCycles(target int64) (int64, error) {
	if o.poisoned != nil {
		return 0, o.poisoned
	}
	if len(o.rob) > 0 {
		return 0, fmt.Errorf("horam: PadToCycles with %d requests still queued", len(o.rob))
	}
	var padded int64
	for o.stats.Cycles < target {
		if err := o.cycle(); err != nil {
			return padded, err
		}
		padded++
	}
	return padded, nil
}

// cycle executes one scheduling group and tracks the cost bound: the
// device time charged by this single cycle, shuffle work included, is
// folded into Stats.MaxCycleTime.
func (o *ORAM) cycle() error {
	before := o.clk.Now()
	err := o.cycleInner()
	if d := o.clk.Now() - before; d > o.stats.MaxCycleTime {
		o.stats.MaxCycleTime = d
	}
	return err
}

func (o *ORAM) cycleInner() error {
	if o.poisoned != nil {
		return o.poisoned
	}
	c := o.currentC()

	// Scan the prefetch window for the first miss and up to c hits.
	window := o.rob
	if len(window) > o.depth {
		window = window[:o.depth]
	}
	var miss *Request
	var hits []hit
	for _, r := range window {
		e, err := o.perm.Lookup(r.Addr)
		if err != nil {
			return err
		}
		switch {
		case e.Tier != posmap.TierStorage && len(hits) < c:
			// Memory-resident covers both the tree and, mid-shuffle,
			// the trusted pool: serveHit picks the source from e.
			hits = append(hits, hit{r, e})
		case e.Tier == posmap.TierStorage && miss == nil:
			// Two queued requests may miss on the same address; only
			// the first becomes the cycle's load, the other waits to
			// be served as a hit next cycle. (A repeated address later
			// in the window is already classified as a memory hit once
			// the first fetch lands, so no double-fetch can occur —
			// Lookup reflects residency at scan time, and we fetch at
			// most one block per cycle.)
			miss = r
		}
		if miss != nil && len(hits) == c {
			break
		}
	}

	// While a shuffle is in flight, the new period's budget caps the
	// loads its cycles may issue; once exhausted, cycles run loadless
	// until the quanta complete and the next period begins. The cutoff
	// is a deterministic function of the cycle index (every cycle
	// issues exactly one load until then), so it leaks nothing.
	issueLoad := !o.sm.active || o.missCount < o.missBudget
	storPhase := func() error {
		if !issueLoad {
			return nil
		}
		if miss != nil {
			return o.fetchBlock(miss.Addr, miss)
		}
		ok, err := o.dummyFetch()
		if err != nil {
			return err
		}
		if !ok {
			// Storage exhausted: nothing fetchable remains. The period
			// must end; the shuffle below restores fetchability.
			o.missCount = o.missBudget
		}
		return nil
	}
	memPhase := func() error {
		for _, h := range hits {
			if err := o.serveHit(h.r, h.e); err != nil {
				return err
			}
		}
		for pad := len(hits); pad < c; pad++ {
			if err := o.mem.DummyAccess(); err != nil {
				return err
			}
			o.stats.DummyMemory++
		}
		return nil
	}
	if err := o.overlap(memPhase, storPhase); err != nil {
		return err
	}
	o.stats.Cycles++

	// Remove completed requests, stamping their completion time now
	// that the cycle's device cost is on the clock. The backing-array
	// tail is nilled so completed requests do not linger uncollectable.
	kept := o.rob[:0]
	for _, r := range o.rob {
		if r.done {
			r.DoneSim = o.clk.Now()
		} else {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(o.rob); i++ {
		o.rob[i] = nil
	}
	o.rob = kept

	// Shuffle work runs at cycle end, after this cycle's requests
	// completed: one quantum of the in-flight period, then — budget
	// permitting — the start of a new one. A mid-flight failure leaves
	// partitions partially rewritten and the cursors advanced, so it
	// poisons the instance rather than letting the next cycle retry
	// over inconsistent state.
	if o.sm.active {
		if err := o.serial("shuffle", o.shuffleQuantum); err != nil {
			o.poison(err)
			return err
		}
	}
	if o.missCount >= o.missBudget && !o.sm.active {
		o.beginShuffle()
		// The evict quantum runs in the triggering cycle itself: the
		// block this cycle loaded still belongs to the period that
		// just ended, so it is evicted with the rest.
		if err := o.serial("shuffle", o.shuffleQuantum); err != nil {
			o.poison(err)
			return err
		}
	}
	return nil
}

// hit is one window request the memory tier serves this cycle, with
// the permutation-list entry the window scan loaded for it.
type hit struct {
	r *Request
	e posmap.Entry
}

// serveHit completes one request against the memory tier; e is the
// request's permutation-list entry as the window scan loaded it. A
// block sitting in the in-flight shuffle's trusted pool (TierPool, Slot
// its pool index, which no hit changes within a cycle) is read or
// updated directly in trusted memory, with a dummy path access standing
// in for the tree path a resident hit would have touched — the path of
// a real hit is uniformly distributed, exactly like DummyAccess's, so
// the memory-tier bus shape is identical either way.
//
// A tree hit reads its block's leaf from the list now, not from e: an
// earlier hit on the same address in this cycle has remapped the block
// since the scan, and its old path must not be read twice. The tree
// returns the block's new leaf, which goes back into the list.
func (o *ORAM) serveHit(r *Request, e posmap.Entry) error {
	var result []byte
	if e.Tier == posmap.TierPool {
		b := &o.sm.pool[e.Slot]
		result = bytes.Clone(b.Data)
		if r.Op == OpWrite {
			copy(b.Data, r.Data)
		}
		if err := o.mem.DummyAccess(); err != nil {
			return err
		}
	} else {
		leaf, err := o.perm.Leaf(r.Addr)
		if err != nil {
			return err
		}
		op := pathoram.OpRead
		if r.Op == OpWrite {
			op = pathoram.OpWrite
		}
		if result, leaf, err = o.mem.Access(op, r.Addr, leaf, r.Data); err != nil {
			return err
		}
		if err := o.perm.SetMemory(r.Addr, leaf); err != nil {
			return err
		}
	}
	r.Result = result
	r.done = true
	o.stats.Hits++
	o.stats.Requests++
	return nil
}

// Read enqueues and completes a single read request.
func (o *ORAM) Read(addr int64) ([]byte, error) {
	r := &Request{Op: OpRead, Addr: addr}
	if err := o.Submit(r); err != nil {
		return nil, err
	}
	if err := o.Drain(); err != nil {
		return nil, err
	}
	return r.Result, nil
}

// Write enqueues and completes a single write request. The previous
// block contents are discarded.
func (o *ORAM) Write(addr int64, data []byte) error {
	r := &Request{Op: OpWrite, Addr: addr, Data: data}
	if err := o.Submit(r); err != nil {
		return err
	}
	return o.Drain()
}

// RunBatch queues all requests and drains the scheduler. This is the
// paper's operating mode: a full ROB gives the prefetcher real work to
// group, so the dummy-padding rate is far lower than with one request
// at a time.
func (o *ORAM) RunBatch(reqs []*Request) error {
	if err := o.Submit(reqs...); err != nil {
		return err
	}
	return o.Drain()
}
