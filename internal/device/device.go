// Package device simulates the storage hierarchy the paper evaluates
// on: a slow HDD storage backend, fast DRAM, and (for ablations) an
// SSD. Devices store fixed-size opaque slots — the ciphertext produced
// by a blockcipher.Sealer — and charge virtual time on a shared
// simclock.Clock according to a latency profile.
//
// The two properties the paper's evaluation depends on are modelled
// explicitly:
//
//  1. random block access on the HDD is dominated by positioning cost
//     (seek + rotation, or their page-cache-softened effective value);
//  2. sequential streaming runs at full bandwidth, 10-20x faster per
//     byte, which is what makes H-ORAM's sequential shuffle cheap.
//
// A Sim tracks its head position: an access to the slot following the
// previous access is sequential and pays bandwidth cost only; anything
// else pays the random-access positioning cost first.
//
// Every device here — Sim, File and the Tiered composite — implements
// the one Backend contract in full, so callers reach each capability
// directly and no path falls back to a slower equivalent. Only the
// flush to a durable medium is optional (Syncer): File has one, and
// Tiered forwards to whichever tier does.
package device

import (
	"fmt"
	"time"

	"repro/internal/simclock"
)

// Op identifies the direction of a device access, as visible to an
// adversary probing the bus.
type Op uint8

// Device operations.
const (
	OpRead Op = iota
	OpWrite
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Stats aggregates traffic counters for one device.
type Stats struct {
	Reads        int64         // read ops
	Writes       int64         // write ops
	BytesRead    int64         // payload bytes read
	BytesWritten int64         // payload bytes written
	SeqReads     int64         // reads that hit the sequential fast path
	SeqWrites    int64         // writes that hit the sequential fast path
	Busy         time.Duration // virtual time this device was busy
}

// Add returns the element-wise sum of s and t.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Reads:        s.Reads + t.Reads,
		Writes:       s.Writes + t.Writes,
		BytesRead:    s.BytesRead + t.BytesRead,
		BytesWritten: s.BytesWritten + t.BytesWritten,
		SeqReads:     s.SeqReads + t.SeqReads,
		SeqWrites:    s.SeqWrites + t.SeqWrites,
		Busy:         s.Busy + t.Busy,
	}
}

// Ops returns the total number of operations.
func (s Stats) Ops() int64 { return s.Reads + s.Writes }

// Hook observes every access to a device; the trace package uses it to
// record the adversary's view. The hook runs synchronously on the
// accessing goroutine.
type Hook func(dev string, op Op, slot int64)

// Backend is the one device contract the ORAM controllers in this
// repository build on: timed slot I/O, one slot at a time or a run at
// a time, the uncharged raw paths for setup (a slot or a run at a
// time) and snapshot capture, and the head, counter and adversary-hook
// controls. *Sim, *File and *Tiered all satisfy it, so any of them can
// back either tier.
//
// Implementations must tolerate concurrent callers only if documented;
// the ORAM controllers in this repository serialise device access.
type Backend interface {
	// Name identifies the device in reports ("hdd", "dram", ...).
	Name() string
	// SlotSize returns the fixed payload size of one slot in bytes.
	SlotSize() int
	// Slots returns the number of addressable slots.
	Slots() int64
	// Read copies slot's payload into dst (len(dst) ≥ SlotSize) and
	// charges simulated time.
	Read(slot int64, dst []byte) error
	// Write stores src (len(src) == SlotSize) into slot and charges
	// simulated time.
	Write(slot int64, src []byte) error
	// ReadSlots reads slots[i] into bufs[i] for every i. The whole
	// request is validated before any slot of it is charged, and the
	// accounting is per slot in argument order — counters and hook
	// events are exactly those of the equivalent Read loop — but an
	// implementation may coalesce the data transfer (File turns each
	// contiguous run into one preadv) and advance the clock once by a
	// run's summed latency.
	ReadSlots(slots []int64, bufs [][]byte) error
	// WriteSlots writes bufs[i] into slots[i] for every i, with the
	// same validation and accounting contract as ReadSlots.
	WriteSlots(slots []int64, bufs [][]byte) error
	// WriteRaw stores src without charging simulated time or counters
	// (unmeasured setup writes).
	WriteRaw(slot int64, src []byte) error
	// WriteRawSlots is WriteRaw for a run: it writes bufs[i] into
	// slots[i] for every i after validating the whole request, charges
	// no time, touches no counter and fires no hook. File turns each
	// contiguous run into one pwritev, so setup that writes a whole
	// partition pays one syscall instead of one per slot.
	WriteRawSlots(slots []int64, bufs [][]byte) error
	// ReadRaw copies a slot's payload without charging simulated time
	// or counters (snapshot capture, debugging).
	ReadRaw(slot int64, dst []byte) error
	// Stats returns a snapshot of the traffic counters.
	Stats() Stats
	// ResetHead forgets the head position so the next access is
	// charged as random.
	ResetHead()
	// ResetStats zeroes the traffic counters.
	ResetStats()
	// SetHook installs fn to observe every access; nil removes it.
	SetHook(fn Hook)
}

// Syncer is the optional durability contract: devices with a real
// backing medium flush buffered writes to it. Sim has nothing to
// flush; File fsyncs.
type Syncer interface {
	Sync() error
}

// Factory builds the storage-tier device for an ORAM instance. The
// ORAM passes its latency profile, sealed-slot geometry and the
// storage-tier clock; the factory decides the medium (Sim, File, ...).
type Factory func(p Profile, slotSize int, slots int64, clk *simclock.Clock) (Backend, error)

// Profile parameterises the latency model of a Sim.
type Profile struct {
	// Name labels the device class, e.g. "hdd".
	Name string
	// ReadBandwidth and WriteBandwidth are streaming rates in
	// bytes/second once the head is positioned.
	ReadBandwidth  float64
	WriteBandwidth float64
	// RandomReadPenalty / RandomWritePenalty are charged on every
	// access that is not sequential with respect to the previous one
	// (seek + rotational latency on a raw disk, or the page-cache
	// softened effective value the paper's machine exhibits).
	RandomReadPenalty  time.Duration
	RandomWritePenalty time.Duration
	// SeqWindow is how many slots ahead of the head an access may land
	// and still count as sequential (models readahead/NCQ coalescing).
	// 1 means only the exact next slot is sequential.
	SeqWindow int64
}

func (p Profile) validate() error {
	if p.ReadBandwidth <= 0 || p.WriteBandwidth <= 0 {
		return fmt.Errorf("device: profile %q: bandwidths must be positive", p.Name)
	}
	if p.RandomReadPenalty < 0 || p.RandomWritePenalty < 0 {
		return fmt.Errorf("device: profile %q: penalties must be non-negative", p.Name)
	}
	if p.SeqWindow < 1 {
		return fmt.Errorf("device: profile %q: SeqWindow must be ≥ 1", p.Name)
	}
	return nil
}

// transferTime returns the streaming time for n bytes at bw bytes/s.
func transferTime(n int, bw float64) time.Duration {
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// meter is the accounting core shared by every latency-modelled device
// in this package: slot geometry, head tracking, the profile's
// streaming/positioning cost model, the traffic counters and the
// adversary hook. Sim and File embed it, so their cost accounting is
// one implementation and cannot drift apart — the property that makes
// a Sim→File swap invisible to the paper's cost model.
type meter struct {
	profile  Profile
	clock    *simclock.Clock
	slotSize int
	slots    int64
	head     int64 // next slot a sequential access would hit; -1 initially
	stats    Stats
	hook     Hook
}

func newMeter(p Profile, slotSize int, slots int64, clock *simclock.Clock) (meter, error) {
	if err := p.validate(); err != nil {
		return meter{}, err
	}
	if slotSize <= 0 {
		return meter{}, fmt.Errorf("device: slot size must be positive, got %d", slotSize)
	}
	if slots <= 0 {
		return meter{}, fmt.Errorf("device: slot count must be positive, got %d", slots)
	}
	if clock == nil {
		return meter{}, fmt.Errorf("device: nil clock")
	}
	return meter{profile: p, clock: clock, slotSize: slotSize, slots: slots, head: -1}, nil
}

// Name implements Backend.
func (m *meter) Name() string { return m.profile.Name }

// SlotSize implements Backend.
func (m *meter) SlotSize() int { return m.slotSize }

// Slots implements Backend.
func (m *meter) Slots() int64 { return m.slots }

// SetHook installs fn to observe every access; a nil fn removes the
// hook.
func (m *meter) SetHook(fn Hook) { m.hook = fn }

// Stats implements Backend.
func (m *meter) Stats() Stats { return m.stats }

// ResetStats zeroes the counters (the stored data is untouched).
func (m *meter) ResetStats() { m.stats = Stats{} }

// ResetHead forgets the current head position so that the next access
// is charged as random. ORAM controllers call this between logical
// phases whose accesses should not accidentally coalesce.
func (m *meter) ResetHead() { m.head = -1 }

// sequential reports whether an access at slot continues the current
// streaming run, and advances the head.
func (m *meter) sequential(slot int64) bool {
	seq := m.head >= 0 && slot >= m.head && slot < m.head+m.profile.SeqWindow
	m.head = slot + 1
	return seq
}

func (m *meter) checkSlot(slot int64) error {
	if slot < 0 || slot >= m.slots {
		return fmt.Errorf("device %s: slot %d out of range [0,%d)", m.profile.Name, slot, m.slots)
	}
	return nil
}

func (m *meter) checkReadBuf(dst []byte, raw bool) error {
	if len(dst) < m.slotSize {
		kind := "read buffer"
		if raw {
			kind = "raw read buffer"
		}
		return fmt.Errorf("device %s: %s %d < slot size %d", m.profile.Name, kind, len(dst), m.slotSize)
	}
	return nil
}

func (m *meter) checkWritePayload(src []byte, raw bool) error {
	if len(src) != m.slotSize {
		kind := "write payload"
		if raw {
			kind = "raw write payload"
		}
		return fmt.Errorf("device %s: %s %d != slot size %d", m.profile.Name, kind, len(src), m.slotSize)
	}
	return nil
}

// readLat bills one slot read to the counters and returns its
// latency; the caller advances the clock by it, once per slot or once
// per run of slots (the clock takes a lock per Advance).
func (m *meter) readLat(slot int64) time.Duration {
	lat := transferTime(m.slotSize, m.profile.ReadBandwidth)
	if m.sequential(slot) {
		m.stats.SeqReads++
	} else {
		lat += m.profile.RandomReadPenalty
	}
	m.stats.Reads++
	m.stats.BytesRead += int64(m.slotSize)
	m.stats.Busy += lat
	return lat
}

// chargeRead bills one slot read to the clock and counters.
func (m *meter) chargeRead(slot int64) { m.clock.Advance(m.readLat(slot)) }

// chargeWrite bills one slot write to the clock and counters.
func (m *meter) chargeWrite(slot int64) { m.clock.Advance(m.writeLat(slot)) }

// writeLat bills one slot write to the counters and returns its
// latency, like readLat.
func (m *meter) writeLat(slot int64) time.Duration {
	lat := transferTime(m.slotSize, m.profile.WriteBandwidth)
	if m.sequential(slot) {
		m.stats.SeqWrites++
	} else {
		lat += m.profile.RandomWritePenalty
	}
	m.stats.Writes++
	m.stats.BytesWritten += int64(m.slotSize)
	m.stats.Busy += lat
	return lat
}

// observe dispatches the adversary hook.
func (m *meter) observe(op Op, slot int64) {
	if m.hook != nil {
		m.hook(m.profile.Name, op, slot)
	}
}

// Sim is the simulated device. It is not safe for concurrent use; the
// ORAM controllers serialise access to each device.
type Sim struct {
	meter
	data [][]byte
}

// New constructs a simulated device with the given profile, slot
// geometry and shared clock. All slots start zero-filled (allocated
// lazily on first write, so huge devices are cheap until touched).
func New(p Profile, slotSize int, slots int64, clock *simclock.Clock) (*Sim, error) {
	m, err := newMeter(p, slotSize, slots, clock)
	if err != nil {
		return nil, err
	}
	return &Sim{meter: m, data: make([][]byte, slots)}, nil
}

// copyOut copies slot's payload (zeros if never written) into dst.
func (s *Sim) copyOut(slot int64, dst []byte) {
	if s.data[slot] == nil {
		for i := 0; i < s.slotSize; i++ {
			dst[i] = 0
		}
	} else {
		copy(dst, s.data[slot])
	}
}

// copyIn stores src into slot, allocating it on first touch.
func (s *Sim) copyIn(slot int64, src []byte) {
	if s.data[slot] == nil {
		s.data[slot] = make([]byte, s.slotSize)
	}
	copy(s.data[slot], src)
}

// Read implements Backend.
func (s *Sim) Read(slot int64, dst []byte) error {
	if err := s.checkSlot(slot); err != nil {
		return err
	}
	if err := s.checkReadBuf(dst, false); err != nil {
		return err
	}
	s.chargeRead(slot)
	s.copyOut(slot, dst)
	s.observe(OpRead, slot)
	return nil
}

// Write implements Backend.
func (s *Sim) Write(slot int64, src []byte) error {
	if err := s.checkSlot(slot); err != nil {
		return err
	}
	if err := s.checkWritePayload(src, false); err != nil {
		return err
	}
	s.chargeWrite(slot)
	s.copyIn(slot, src)
	s.observe(OpWrite, slot)
	return nil
}

// WriteRaw stores src into slot without charging simulated time or
// touching the counters. It exists for experiment setup (initial ORAM
// population) that the paper does not bill to the measured phase.
func (s *Sim) WriteRaw(slot int64, src []byte) error {
	if err := s.checkSlot(slot); err != nil {
		return err
	}
	if err := s.checkWritePayload(src, true); err != nil {
		return err
	}
	s.copyIn(slot, src)
	return nil
}

// ReadRaw copies slot's payload into dst without charging simulated
// time or touching the counters — the mirror of WriteRaw, used by the
// snapshot subsystem to capture device contents.
func (s *Sim) ReadRaw(slot int64, dst []byte) error {
	if err := s.checkSlot(slot); err != nil {
		return err
	}
	if err := s.checkReadBuf(dst, true); err != nil {
		return err
	}
	s.copyOut(slot, dst)
	return nil
}
