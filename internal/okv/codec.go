// Slot-block codec and table layout. A slot block is the directory
// record of one (bucket, slot) pair; the value bytes themselves never
// live here — they occupy the slot's fixed extent run — so the record
// is pure metadata: an occupancy flag, the key, and the value length.
//
//	[0]        flags: slotEmpty (0x00) or slotOccupied (0x01)
//	[1:3]      key length, big endian
//	[3:7]      value length, big endian
//	[7:7+klen] key bytes
//	rest       zeros
//
// A never-written ORAM block reads back as all zeros, which parses as
// a valid empty slot — the table needs no initialisation pass. The
// parse (slotState) marks structurally impossible inputs (unknown
// flags, lengths out of range, a non-canonical empty record) invalid
// instead of guessing: the block store authenticates its contents, so
// a malformed slot means the table layout itself was damaged (e.g. raw
// WRITE traffic landed inside the KV region), and the op refuses it
// rather than corrupt the table further.
package okv

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"

	"repro/internal/ctops"
)

// slotHeaderLen is the fixed metadata prefix of a slot block.
const slotHeaderLen = 1 + 2 + 4

// Slot flag values.
const (
	slotEmpty    = 0x00
	slotOccupied = 0x01
)

// ErrCorruptSlot is returned (wrapped) when a candidate slot block
// read from the store fails the validity mask. It indicates table
// damage, not a caller error.
var ErrCorruptSlot = errors.New("okv: corrupt slot block")

// layout is the static table geometry: how buckets, slots and extent
// runs map onto the backend's flat block address space.
//
//	[0, buckets*slots)        one slot block per (bucket, slot)
//	[buckets*slots, ...)      extents extent blocks per slot, in slot
//	                          index order
//
// Trailing backend blocks that do not fit a whole slot are unused.
type layout struct {
	buckets   int64
	slots     int // slots per bucket
	extents   int // extent blocks per slot
	blockSize int
	maxKey    int
	maxValue  int
}

// slotIndex flattens (bucket, slot) into the global slot index.
func (l layout) slotIndex(bucket int64, slot int) int64 {
	return bucket*int64(l.slots) + int64(slot)
}

// slotAddr is the block address of a slot's directory record.
func (l layout) slotAddr(slotIndex int64) int64 { return slotIndex }

// extentAddr is the block address of extent j of a slot.
func (l layout) extentAddr(slotIndex int64, j int) int64 {
	return l.buckets*int64(l.slots) + slotIndex*int64(l.extents) + int64(j)
}

// blocksPerSlot is the backend capacity one slot consumes.
func (l layout) blocksPerSlot() int64 { return 1 + int64(l.extents) }

// encodeSlotInto renders an occupied slot record into b, a block-size
// buffer that may hold stale bytes (the hot path reuses pooled
// scratch, so the tail must be re-zeroed explicitly). The caller has
// already validated key and valLen against the layout's caps.
func (l layout) encodeSlotInto(b, key []byte, valLen int) {
	b[0] = slotOccupied
	binary.BigEndian.PutUint16(b[1:3], uint16(len(key)))
	binary.BigEndian.PutUint32(b[3:7], uint32(valLen))
	n := copy(b[slotHeaderLen:], key)
	for i := slotHeaderLen + n; i < len(b); i++ {
		b[i] = 0
	}
}

// encodeSlot is the allocating form of encodeSlotInto, for callers
// outside the steady state.
func (l layout) encodeSlot(key []byte, valLen int) []byte {
	b := make([]byte, l.blockSize)
	l.encodeSlotInto(b, key, valLen)
	return b
}

// slotLens reads a slot block's key and value length fields, unchecked.
func slotLens(b []byte) (klen, vlen int) {
	return int(binary.BigEndian.Uint16(b[1:3])), int(binary.BigEndian.Uint32(b[3:7]))
}

// slotState is the masked parse of one slot block's header: occ is 1
// for an occupied slot, and ok is 1 unless the block is malformed —
// an unknown flag byte, an empty slot with a non-zero key or value
// length, or an occupied one with a key length outside [1, maxKey] or
// a value length over maxValue. Every check runs on every block, in
// fixed order. b must be one block (blockSize bytes); resolve caps
// maxKey at blockSize − slotHeaderLen, so an in-range key fits it.
//
//horam:constant-time
//horam:mask
//horam:secret b
func (l layout) slotState(b []byte) (occ, ok int) {
	klen, vlen := slotLens(b)
	empty := subtle.ConstantTimeByteEq(b[0], slotEmpty)
	occ = subtle.ConstantTimeByteEq(b[0], slotOccupied)
	noLens := ctops.EqInt(klen|vlen, 0)
	keyOK := ctops.LtInt(0, klen) & ctops.GeInt(l.maxKey, klen)
	valOK := ctops.GeInt(l.maxValue, vlen)
	return occ, empty&noLens | occ&keyOK&valOK
}

// encodeValueInto splits a value into out, a pre-sized extent run of
// exactly l.extents block-size buffers, zero-padding every byte past
// the value — extent traffic is independent of the actual value
// length, and pooled buffers shed their previous contents. A nil
// value zeroes the whole run (the scrub a deletion writes).
func (l layout) encodeValueInto(out [][]byte, value []byte) {
	for j, blk := range out {
		off := j * l.blockSize
		n := 0
		if off < len(value) {
			n = copy(blk, value[off:])
		}
		for i := n; i < len(blk); i++ {
			blk[i] = 0
		}
	}
}

// encodeValue is the allocating form of encodeValueInto, for callers
// outside the steady state.
func (l layout) encodeValue(value []byte) [][]byte {
	out := make([][]byte, l.extents)
	for j := range out {
		out[j] = make([]byte, l.blockSize)
	}
	l.encodeValueInto(out, value)
	return out
}

// decodeValue reassembles a value of length valLen from its extent
// blocks.
func (l layout) decodeValue(ext [][]byte, valLen int) []byte {
	out := make([]byte, 0, valLen)
	for _, blk := range ext {
		if len(out) >= valLen {
			break
		}
		n := valLen - len(out)
		if n > len(blk) {
			n = len(blk)
		}
		out = append(out, blk[:n]...)
	}
	return out
}
