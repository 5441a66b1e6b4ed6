package device

import (
	"fmt"
	"time"
)

// Vectored slot I/O. The shuffle quantum and multi-slot cycle paths
// touch runs of slots at a time; issuing them through the one-slot
// Read/Write methods costs one syscall per slot on a File backend, so
// ReadSlots/WriteSlots are part of the Backend contract and every
// device implements them natively: Sim has no syscalls to coalesce,
// only clock advances; File turns each contiguous run into one
// preadv/pwritev; Tiered splits a request into per-tier runs and lets
// each tier coalesce its own. Whatever the transfer, the accounting is
// that of the equivalent Read/Write loop.

func checkVector(slots []int64, bufs [][]byte) error {
	if len(slots) != len(bufs) {
		return fmt.Errorf("device: %d slots, %d buffers", len(slots), len(bufs))
	}
	return nil
}

// checkReadRun validates a whole ReadSlots request before any slot of
// it is charged.
func (m *meter) checkReadRun(slots []int64, bufs [][]byte) error {
	if err := checkVector(slots, bufs); err != nil {
		return err
	}
	for i, slot := range slots {
		if err := m.checkSlot(slot); err != nil {
			return err
		}
		if err := m.checkReadBuf(bufs[i], false); err != nil {
			return err
		}
	}
	return nil
}

// checkWriteRun validates a whole WriteSlots request before any slot
// of it is charged.
func (m *meter) checkWriteRun(slots []int64, bufs [][]byte) error {
	if err := checkVector(slots, bufs); err != nil {
		return err
	}
	for i, slot := range slots {
		if err := m.checkSlot(slot); err != nil {
			return err
		}
		if err := m.checkWritePayload(bufs[i], false); err != nil {
			return err
		}
	}
	return nil
}

// ReadSlots implements Backend. A Sim has no syscalls to coalesce; it
// validates the whole request, bills and observes each slot as Read
// would, and advances the clock once by the summed latency instead of
// once per slot.
func (s *Sim) ReadSlots(slots []int64, bufs [][]byte) error {
	if err := s.checkReadRun(slots, bufs); err != nil {
		return err
	}
	var lat time.Duration
	for i, slot := range slots {
		lat += s.readLat(slot)
		s.copyOut(slot, bufs[i])
		s.observe(OpRead, slot)
	}
	s.clock.Advance(lat)
	return nil
}

// WriteSlots implements Backend, with ReadSlots' validation and single
// clock advance.
func (s *Sim) WriteSlots(slots []int64, bufs [][]byte) error {
	if err := s.checkWriteRun(slots, bufs); err != nil {
		return err
	}
	var lat time.Duration
	for i, slot := range slots {
		lat += s.writeLat(slot)
		s.copyIn(slot, bufs[i])
		s.observe(OpWrite, slot)
	}
	s.clock.Advance(lat)
	return nil
}

// ReadSlots implements Backend by splitting the request into maximal
// same-tier runs, translating slow-tier addresses, and letting each
// tier's own vectored path coalesce its run.
func (t *Tiered) ReadSlots(slots []int64, bufs [][]byte) error {
	return t.vectored(slots, bufs, false, Backend.ReadSlots)
}

// WriteSlots implements Backend.
func (t *Tiered) WriteSlots(slots []int64, bufs [][]byte) error {
	return t.vectored(slots, bufs, true, Backend.WriteSlots)
}

// vectored validates the whole request first, as a single device
// would, so a bad slot or buffer in a later run cannot leave an
// earlier run written and billed.
func (t *Tiered) vectored(slots []int64, bufs [][]byte, write bool, op func(Backend, []int64, [][]byte) error) error {
	if err := checkVector(slots, bufs); err != nil {
		return err
	}
	size := t.SlotSize()
	for i, slot := range slots {
		if slot < 0 || slot >= t.Slots() {
			return fmt.Errorf("device %s: slot %d out of range [0,%d)", t.Name(), slot, t.Slots())
		}
		if n := len(bufs[i]); n < size || write && n != size {
			return fmt.Errorf("device %s: slot %d buffer %d bytes, slot size %d", t.Name(), slot, n, size)
		}
	}
	for start := 0; start < len(slots); {
		fast := slots[start] < t.boundary
		end := start + 1
		for end < len(slots) && (slots[end] < t.boundary) == fast {
			end++
		}
		dev, run := t.fast, slots[start:end]
		if !fast {
			dev = t.slow
			translated := make([]int64, end-start)
			for i, s := range run {
				translated[i] = s - t.boundary
			}
			run = translated
		}
		if err := op(dev, run, bufs[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}
