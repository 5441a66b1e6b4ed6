package horam

import "repro/internal/record"

// shufScratch is the persistent per-instance scratch of the shuffle
// quantum: slot vector, sealed slab (read inputs, then reused as seal
// outputs), two plaintext slabs (one for opened records, one for the
// write-phase encodes — separate so live payloads can alias the read
// slab while the write slab is being filled), the live-record list and
// the slot→record index (by partition offset, -1 for a dummy). Sized
// to one partition, allocated on first use.
type shufScratch struct {
	slots   []int64
	sealedV [][]byte
	readPt  [][]byte
	writePt [][]byte
	recs    []shufRec
	slotOf  []int
}

type shufRec struct {
	addr int64
	data []byte
}

func (o *ORAM) shufScratchFor(partSlots int64) *shufScratch {
	if o.shuf == nil {
		o.shuf = &shufScratch{
			slots:   make([]int64, partSlots),
			sealedV: record.Slab(int(partSlots), o.codec.SlotSize()),
			readPt:  record.Slab(int(partSlots), o.codec.PtSize()),
			writePt: record.Slab(int(partSlots), o.codec.PtSize()),
			recs:    make([]shufRec, 0, partSlots),
			slotOf:  make([]int, partSlots),
		}
	}
	return o.shuf
}
