package device

import (
	"fmt"
	"time"
)

// Vectored slot I/O. The shuffle quantum and multi-slot cycle paths
// touch runs of slots at a time; issuing them through the one-slot
// Read/Write methods costs one syscall per slot on a File backend.
// Backend therefore carries first-class ReadSlots/WriteSlots, and this
// file provides the two pieces that keep the old world working:
//
//   - ReadSlotsSeq/WriteSlotsSeq, the sequential fallback any Device
//     can be adapted through — it IS the accounting contract: vectored
//     implementations must charge, count and observe exactly as the
//     fallback would, though they may advance the clock once by a
//     run's summed latency rather than once per slot;
//   - the Sim and Tiered implementations (Sim has no syscalls to
//     coalesce, only clock advances; Tiered splits a request into
//     per-tier runs and lets each tier coalesce its own).
//
// The package-level ReadSlots/WriteSlots helpers adapt a plain Device:
// they use the native vectored path when the device has one and the
// sequential fallback otherwise.

// vectorDevice is the vectored capability subset of Backend, used to
// probe plain Devices for a native gather/scatter path.
type vectorDevice interface {
	ReadSlots(slots []int64, bufs [][]byte) error
	WriteSlots(slots []int64, bufs [][]byte) error
}

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

// ReadSlotsSeq implements the ReadSlots contract as a loop of Read
// calls — the fallback adapter for devices without a native vectored
// path, and the reference accounting behaviour vectored
// implementations must match.
func ReadSlotsSeq(d Device, slots []int64, bufs [][]byte) error {
	if err := checkVector(slots, bufs); err != nil {
		return err
	}
	for i, slot := range slots {
		if err := d.Read(slot, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteSlotsSeq implements the WriteSlots contract as a loop of Write
// calls.
func WriteSlotsSeq(d Device, slots []int64, bufs [][]byte) error {
	if err := checkVector(slots, bufs); err != nil {
		return err
	}
	for i, slot := range slots {
		if err := d.Write(slot, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadSlots reads through d's native vectored path when it has one and
// the sequential fallback otherwise.
func ReadSlots(d Device, slots []int64, bufs [][]byte) error {
	if vd, ok := d.(vectorDevice); ok {
		return vd.ReadSlots(slots, bufs)
	}
	return ReadSlotsSeq(d, slots, bufs)
}

// WriteSlots writes through d's native vectored path when it has one
// and the sequential fallback otherwise.
func WriteSlots(d Device, slots []int64, bufs [][]byte) error {
	if vd, ok := d.(vectorDevice); ok {
		return vd.WriteSlots(slots, bufs)
	}
	return WriteSlotsSeq(d, slots, bufs)
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
	return t.vectored(slots, bufs, ReadSlots)
}

// WriteSlots implements Backend.
func (t *Tiered) WriteSlots(slots []int64, bufs [][]byte) error {
	return t.vectored(slots, bufs, WriteSlots)
}

func (t *Tiered) vectored(slots []int64, bufs [][]byte, op func(Device, []int64, [][]byte) error) error {
	if err := checkVector(slots, bufs); err != nil {
		return err
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
