package horam

import (
	"fmt"

	"repro/internal/posmap"
)

// initStorage writes the initial permuted layout. The address→partition
// assignment must be a *random balanced* one: a globally shuffled
// address list is dealt into the partitions in equal shares, then each
// partition is permuted internally. Assigning by address range instead
// would correlate logical addresses with partitions and leak workload
// structure through which partitions are read (the §4.3.3 argument
// needs unbiased partition access). Setup is unmeasured; the sealing
// is still batched per partition because it is the dominant cost of
// bringing up a large instance.
func (o *ORAM) initStorage() error {
	perPart := (o.cfg.Blocks + o.partitions - 1) / o.partitions
	dealt := o.cfg.RNG.Perm(int(o.cfg.Blocks)) // random balanced deal
	sc := o.shufScratchFor(o.partSlots)
	for p := int64(0); p < o.partitions; p++ {
		lo := p * perPart
		hi := lo + perPart
		if hi > o.cfg.Blocks {
			hi = o.cfg.Blocks
		}
		count := hi - lo
		permIdx := o.cfg.RNG.Perm(int(o.partSlots))
		base := p * o.partSlots
		// Encode the partition's records in deal order (the nonce order
		// the serial implementation used), batch-seal, then raw-write
		// each record at its permuted slot.
		for i := int64(0); i < o.partSlots; i++ {
			slot := base + int64(permIdx[i])
			sc.slots[i] = slot
			if i < count {
				addr := int64(dealt[lo+i])
				o.codec.Encode(sc.writePt[i], addr, nil)
				if err := o.perm.SetStorage(addr, slot); err != nil {
					return err
				}
			} else {
				copy(sc.writePt[i], o.codec.DummyPt())
			}
		}
		if err := o.codec.SealRun(sc.writePt, sc.sealedV); err != nil {
			return err
		}
		for i := int64(0); i < o.partSlots; i++ {
			if err := o.storDev.WriteRaw(sc.slots[i], sc.sealedV[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// fetchBlock services a load: one storage read of the block's permuted
// slot, delivery into the memory tree's stash, residency update (the
// list records the leaf the tree drew), and the square-root touched-bit
// bookkeeping. Exactly one I/O read; no
// storage write (the slot simply goes stale until the next shuffle).
// When r is the request that missed, the load also completes it, as a
// partition-ORAM read is answered from the block its storage read
// returned: r.Result is the opened payload (a write's previous
// contents), and a write's data is what enters the stash. A prefetch
// passes nil. Apart from that result copy it runs in instance scratch:
// the tree's Insert copies the payload.
func (o *ORAM) fetchBlock(addr int64, r *Request) error {
	entry, err := o.perm.Lookup(addr)
	if err != nil {
		return err
	}
	if entry.Tier != posmap.TierStorage {
		return fmt.Errorf("horam: fetchBlock(%d): block is already in memory", addr)
	}
	if err := o.perm.MarkTouched(addr); err != nil {
		return err
	}
	if err := o.storDev.Read(entry.Slot, o.fetchBuf); err != nil {
		return err
	}
	gotAddr, payload, err := o.codec.OpenInto(o.fetchPt, o.fetchBuf)
	if err != nil {
		return err
	}
	if gotAddr != addr {
		return fmt.Errorf("horam: storage slot %d holds block %d, want %d", entry.Slot, gotAddr, addr)
	}
	stashed := payload
	if r != nil && r.Op == OpWrite {
		stashed = r.Data
	}
	leaf, err := o.mem.Insert(addr, posmap.NoLeaf, stashed)
	if err != nil {
		return err
	}
	if err := o.perm.SetMemory(addr, leaf); err != nil {
		return err
	}
	o.missCount++
	if r != nil {
		r.Result = append([]byte(nil), payload...)
		r.done = true
		o.stats.Misses++
		o.stats.Requests++
	}
	return nil
}

// dummyFetch issues the padding I/O load of a cycle with no miss to
// serve: it prefetches a uniformly random storage-resident untouched
// block. On the bus this is indistinguishable from a real miss (one
// read of a fresh uniformly distributed slot), and because the block
// genuinely moves to memory the square-root read-once invariant is
// preserved even if the block is requested later this period.
//
// It returns false when no storage-resident untouched block remains
// (the caller shuffles immediately; with the standard n ≪ N geometry
// this cannot happen before the miss budget does).
func (o *ORAM) dummyFetch() (bool, error) {
	// Rejection-sample a random address that is still fetchable. With
	// N ≫ n the first draw almost always works; fall back to a scan so
	// small configurations terminate deterministically.
	for attempt := 0; attempt < 16; attempt++ {
		addr := o.cfg.RNG.Int63n(o.cfg.Blocks)
		e, err := o.perm.Lookup(addr)
		if err != nil {
			return false, err
		}
		if e.Tier == posmap.TierStorage && !e.Touched {
			if err := o.fetchBlock(addr, nil); err != nil {
				return false, err
			}
			o.stats.DummyIO++
			return true, nil
		}
	}
	candidates := o.perm.StorageAddrs()
	var fresh []int64
	for _, a := range candidates {
		e, err := o.perm.Lookup(a)
		if err != nil {
			return false, err
		}
		if !e.Touched {
			fresh = append(fresh, a)
		}
	}
	if len(fresh) == 0 {
		return false, nil
	}
	addr := fresh[o.cfg.RNG.Intn(len(fresh))]
	if err := o.fetchBlock(addr, nil); err != nil {
		return false, err
	}
	o.stats.DummyIO++
	return true, nil
}
