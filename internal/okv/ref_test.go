// Reference implementations the masked code is checked against: a
// branching slot decoder and a branching target selector. They are
// test oracles — simple enough to read as the specification, and
// independent of the masked arithmetic they check.
package okv

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// slotEntry is the decoded form of a slot block.
type slotEntry struct {
	occupied bool
	key      []byte
	valLen   int
}

// decodeSlot parses a slot block, refusing every malformed form with
// an error wrapping ErrCorruptSlot. The key slice aliases b.
func (l layout) decodeSlot(b []byte) (slotEntry, error) {
	if len(b) != l.blockSize {
		return slotEntry{}, fmt.Errorf("%w: %d bytes, want %d", ErrCorruptSlot, len(b), l.blockSize)
	}
	klen := int(binary.BigEndian.Uint16(b[1:3]))
	vlen := int(binary.BigEndian.Uint32(b[3:7]))
	switch b[0] {
	case slotEmpty:
		if klen != 0 || vlen != 0 {
			return slotEntry{}, fmt.Errorf("%w: empty flag with key length %d, value length %d", ErrCorruptSlot, klen, vlen)
		}
		return slotEntry{}, nil
	case slotOccupied:
		if klen < 1 || klen > l.maxKey || slotHeaderLen+klen > l.blockSize {
			return slotEntry{}, fmt.Errorf("%w: key length %d out of [1,%d]", ErrCorruptSlot, klen, l.maxKey)
		}
		if vlen > l.maxValue {
			return slotEntry{}, fmt.Errorf("%w: value length %d exceeds cap %d", ErrCorruptSlot, vlen, l.maxValue)
		}
		return slotEntry{occupied: true, key: b[slotHeaderLen : slotHeaderLen+klen], valLen: vlen}, nil
	default:
		return slotEntry{}, fmt.Errorf("%w: unknown flag byte 0x%02x", ErrCorruptSlot, b[0])
	}
}

// refSelect is the branching selector over the lookup batch in sc: the
// first key match in scan order; otherwise for SET the bucket with
// more free slots (ties to b0) and its first free slot; otherwise the
// PRF dummy. target is a candidate position in [0, 2S). When a
// candidate fails to decode, target is the first such position and
// err wraps ErrCorruptSlot.
func (s *Store) refSelect(sc *opScratch, kind opKind, key []byte) (target int, found, full bool, valLen int, err error) {
	S := s.lay.slots
	entries := make([]slotEntry, 2*S)
	for i := range sc.lookupRs {
		e, err := s.lay.decodeSlot(sc.lookupRs[i].Result)
		if err != nil {
			return i, false, false, 0, err
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
	return target, found, full, valLen, nil
}
