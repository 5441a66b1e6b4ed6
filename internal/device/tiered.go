package device

import "fmt"

// Tiered composes a fast and a slow device into one slot address
// space: slots below Boundary live on the fast device, the rest on the
// slow one at an offset. This is exactly the ZeroTrace-style tree-top
// cache layout the paper's baseline uses — the top levels of the Path
// ORAM tree sit in memory and the bottom levels spill to storage.
type Tiered struct {
	fast     Backend
	slow     Backend
	boundary int64
}

// NewTiered builds the composite. boundary is the number of leading
// slots served by fast; it must fit within fast's capacity, and slow
// must hold the remainder of `total` slots. Both devices must share
// the slot size.
func NewTiered(fast, slow Backend, boundary, total int64) (*Tiered, error) {
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

// Name implements Backend.
func (t *Tiered) Name() string {
	return fmt.Sprintf("tiered(%s+%s)", t.fast.Name(), t.slow.Name())
}

// SlotSize implements Backend.
func (t *Tiered) SlotSize() int { return t.fast.SlotSize() }

// Slots implements Backend.
func (t *Tiered) Slots() int64 { return t.boundary + t.slow.Slots() }

// Boundary returns the first slot index served by the slow tier.
func (t *Tiered) Boundary() int64 { return t.boundary }

// Fast returns the fast-tier device.
func (t *Tiered) Fast() Backend { return t.fast }

// Slow returns the slow-tier device.
func (t *Tiered) Slow() Backend { return t.slow }

// route returns the tier that owns slot and the slot's index on it.
func (t *Tiered) route(slot int64) (Backend, int64) {
	if slot < t.boundary {
		return t.fast, slot
	}
	return t.slow, slot - t.boundary
}

// Read implements Backend.
func (t *Tiered) Read(slot int64, dst []byte) error {
	dev, slot := t.route(slot)
	return dev.Read(slot, dst)
}

// Write implements Backend.
func (t *Tiered) Write(slot int64, src []byte) error {
	dev, slot := t.route(slot)
	return dev.Write(slot, src)
}

// WriteRaw forwards setup writes to the owning tier's raw path.
func (t *Tiered) WriteRaw(slot int64, src []byte) error {
	dev, slot := t.route(slot)
	return dev.WriteRaw(slot, src)
}

// ReadRaw forwards uncharged reads to the owning tier's raw path.
func (t *Tiered) ReadRaw(slot int64, dst []byte) error {
	dev, slot := t.route(slot)
	return dev.ReadRaw(slot, dst)
}

// ResetHead forgets the head position on both tiers, so the next
// access to either is charged as random.
func (t *Tiered) ResetHead() {
	t.fast.ResetHead()
	t.slow.ResetHead()
}

// ResetStats zeroes the counters of both tiers.
func (t *Tiered) ResetStats() {
	t.fast.ResetStats()
	t.slow.ResetStats()
}

// SetHook installs fn on both tiers, so the composite reports every
// access like a single device would.
func (t *Tiered) SetHook(fn Hook) {
	t.fast.SetHook(fn)
	t.slow.SetHook(fn)
}

// Sync flushes both tiers' durable media (when they have one).
func (t *Tiered) Sync() error {
	for _, dev := range []Backend{t.fast, t.slow} {
		if s, ok := dev.(Syncer); ok {
			if err := s.Sync(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats implements Backend by summing both tiers.
func (t *Tiered) Stats() Stats { return t.fast.Stats().Add(t.slow.Stats()) }

// Compile-time Backend conformance for every device in this package.
var (
	_ Backend = (*Sim)(nil)
	_ Backend = (*File)(nil)
	_ Backend = (*Tiered)(nil)
	_ Syncer  = (*File)(nil)
)
