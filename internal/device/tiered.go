package device

import "fmt"

// Tiered composes a fast and a slow device into one slot address
// space: slots below Boundary live on the fast device, the rest on the
// slow one at an offset. This is exactly the ZeroTrace-style tree-top
// cache layout the paper's baseline uses — the top levels of the Path
// ORAM tree sit in memory and the bottom levels spill to storage.
type Tiered struct {
	fast     Device
	slow     Device
	boundary int64
}

// NewTiered builds the composite. boundary is the number of leading
// slots served by fast; it must fit within fast's capacity, and slow
// must hold the remainder of `total` slots. Both devices must share
// the slot size.
func NewTiered(fast, slow Device, boundary, total int64) (*Tiered, error) {
	if fast == nil || slow == nil {
		return nil, fmt.Errorf("device: tiered requires two devices")
	}
	if fast.SlotSize() != slow.SlotSize() {
		return nil, fmt.Errorf("device: tiered slot sizes differ: %d vs %d", fast.SlotSize(), slow.SlotSize())
	}
	if boundary < 0 || boundary > total {
		return nil, fmt.Errorf("device: tiered boundary %d out of range [0,%d]", boundary, total)
	}
	if fast.Slots() < boundary {
		return nil, fmt.Errorf("device: fast tier has %d slots, boundary needs %d", fast.Slots(), boundary)
	}
	if slow.Slots() < total-boundary {
		return nil, fmt.Errorf("device: slow tier has %d slots, needs %d", slow.Slots(), total-boundary)
	}
	return &Tiered{fast: fast, slow: slow, boundary: boundary}, nil
}

// Name implements Device.
func (t *Tiered) Name() string {
	return fmt.Sprintf("tiered(%s+%s)", t.fast.Name(), t.slow.Name())
}

// SlotSize implements Device.
func (t *Tiered) SlotSize() int { return t.fast.SlotSize() }

// Slots implements Device.
func (t *Tiered) Slots() int64 { return t.boundary + t.slow.Slots() }

// Boundary returns the first slot index served by the slow tier.
func (t *Tiered) Boundary() int64 { return t.boundary }

// Fast returns the fast-tier device.
func (t *Tiered) Fast() Device { return t.fast }

// Slow returns the slow-tier device.
func (t *Tiered) Slow() Device { return t.slow }

// Read implements Device.
func (t *Tiered) Read(slot int64, dst []byte) error {
	if slot < t.boundary {
		return t.fast.Read(slot, dst)
	}
	return t.slow.Read(slot-t.boundary, dst)
}

// Write implements Device.
func (t *Tiered) Write(slot int64, src []byte) error {
	if slot < t.boundary {
		return t.fast.Write(slot, src)
	}
	return t.slow.Write(slot-t.boundary, src)
}

// WriteRaw forwards setup writes to the owning tier's raw path when it
// has one, falling back to a timed write otherwise.
func (t *Tiered) WriteRaw(slot int64, src []byte) error {
	dev := t.fast
	if slot >= t.boundary {
		dev = t.slow
		slot -= t.boundary
	}
	if rw, ok := dev.(RawWriter); ok {
		return rw.WriteRaw(slot, src)
	}
	return dev.Write(slot, src)
}

// ReadRaw forwards uncharged reads to the owning tier's raw path when
// it has one, falling back to a timed read otherwise.
func (t *Tiered) ReadRaw(slot int64, dst []byte) error {
	dev := t.fast
	if slot >= t.boundary {
		dev = t.slow
		slot -= t.boundary
	}
	if rr, ok := dev.(interface {
		ReadRaw(int64, []byte) error
	}); ok {
		return rr.ReadRaw(slot, dst)
	}
	return dev.Read(slot, dst)
}

// ResetHead forgets the head position on both tiers (when they track
// one), so the next access to either is charged as random.
func (t *Tiered) ResetHead() {
	for _, dev := range []Device{t.fast, t.slow} {
		if rh, ok := dev.(interface{ ResetHead() }); ok {
			rh.ResetHead()
		}
	}
}

// ResetStats zeroes the counters of both tiers (when they support it).
func (t *Tiered) ResetStats() {
	for _, dev := range []Device{t.fast, t.slow} {
		if rs, ok := dev.(interface{ ResetStats() }); ok {
			rs.ResetStats()
		}
	}
}

// SetHook installs fn on both tiers (when they support hooks), so the
// composite reports every access like a single device would.
func (t *Tiered) SetHook(fn Hook) {
	for _, dev := range []Device{t.fast, t.slow} {
		if sh, ok := dev.(interface{ SetHook(Hook) }); ok {
			sh.SetHook(fn)
		}
	}
}

// Sync flushes both tiers' durable media (when they have one).
func (t *Tiered) Sync() error {
	for _, dev := range []Device{t.fast, t.slow} {
		if s, ok := dev.(Syncer); ok {
			if err := s.Sync(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats implements Device by summing both tiers.
func (t *Tiered) Stats() Stats { return t.fast.Stats().Add(t.slow.Stats()) }

// Compile-time Backend conformance for every device in this package.
var (
	_ Backend = (*Sim)(nil)
	_ Backend = (*File)(nil)
	_ Backend = (*Tiered)(nil)
	_ Syncer  = (*File)(nil)
)
