package device

import (
	"fmt"
	"os"
	"time"

	"repro/internal/simclock"
)

// File is a durable slot store over a preallocated on-disk file: slot
// i occupies bytes [i·SlotSize, (i+1)·SlotSize). It embeds the same
// accounting meter as Sim — head-position tracking and the
// profile-driven virtual-time charging are one shared implementation —
// so an ORAM swapped from Sim to File keeps identical
// sequential-vs-random accounting and Stats, while the payload
// additionally survives process restarts.
//
// Like Sim, File is not safe for concurrent use; the ORAM controllers
// serialise device access.
//
// Durability: writes go straight to the file via pwrite. FsyncEvery
// picks the fsync policy; independent of it, Sync flushes explicitly —
// the snapshot subsystem calls it at shuffle and checkpoint
// boundaries so the on-disk image is durable before a state marker
// declares it so.
type File struct {
	meter
	f    *os.File
	path string

	fsyncEvery int
	unsynced   int   // timed writes since the last fsync
	syncs      int64 // fsyncs issued (policy + explicit)

	vec   fileVec  // platform-specific vectored-I/O scratch
	views [][]byte // reusable slot-size buffer views for vectored runs
}

// FileConfig parameterises a File device.
type FileConfig struct {
	// Path is the backing file. A missing file is created and
	// preallocated; an existing file must match the slot geometry
	// exactly (its contents are kept — that is the durability story).
	Path string
	// Profile is the latency model charged to Clock, exactly as Sim
	// charges it, so simulated accounting survives the Sim→File swap.
	Profile Profile
	// SlotSize and Slots fix the geometry.
	SlotSize int
	Slots    int64
	// Clock receives the simulated access cost; required.
	Clock *simclock.Clock
	// FsyncEvery selects the fsync policy for timed writes: 0 never
	// fsyncs implicitly (callers Sync at consistency points), 1 fsyncs
	// after every write, n > 1 after every n-th write.
	FsyncEvery int
}

// NewFile opens (or creates and preallocates) the backing file and
// returns the device. Unwritten slots read as zeros.
func NewFile(cfg FileConfig) (*File, error) {
	m, err := newMeter(cfg.Profile, cfg.SlotSize, cfg.Slots, cfg.Clock)
	if err != nil {
		return nil, err
	}
	if cfg.FsyncEvery < 0 {
		return nil, fmt.Errorf("device: FsyncEvery must be non-negative, got %d", cfg.FsyncEvery)
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	want := int64(cfg.SlotSize) * cfg.Slots
	st, err := f.Stat()
	if err != nil {
		f.Close() //horam:errok abandoning the handle; the stat error is the one to surface
		return nil, fmt.Errorf("device: %w", err)
	}
	if st.Size() != 0 && st.Size() != want {
		f.Close() //horam:errok abandoning the handle; nothing was written
		return nil, fmt.Errorf("device: %s is %d bytes; geometry %d x %d needs %d (refusing to reuse a file with different geometry)",
			cfg.Path, st.Size(), cfg.Slots, cfg.SlotSize, want)
	}
	if st.Size() != want {
		if err := f.Truncate(want); err != nil {
			f.Close() //horam:errok abandoning the handle; the preallocate error is the one to surface
			return nil, fmt.Errorf("device: preallocate %s: %w", cfg.Path, err)
		}
	}
	return &File{
		meter:      m,
		f:          f,
		path:       cfg.Path,
		fsyncEvery: cfg.FsyncEvery,
	}, nil
}

func (d *File) off(slot int64) int64 { return slot * int64(d.slotSize) }

func (d *File) pread(slot int64, dst []byte) error {
	if _, err := d.f.ReadAt(dst[:d.slotSize], d.off(slot)); err != nil {
		return fmt.Errorf("device %s: pread slot %d: %w", d.profile.Name, slot, err)
	}
	return nil
}

func (d *File) pwrite(slot int64, src []byte) error {
	if _, err := d.f.WriteAt(src, d.off(slot)); err != nil {
		return fmt.Errorf("device %s: pwrite slot %d: %w", d.profile.Name, slot, err)
	}
	return nil
}

// Read implements Backend.
func (d *File) Read(slot int64, dst []byte) error {
	if err := d.checkSlot(slot); err != nil {
		return err
	}
	if err := d.checkReadBuf(dst, false); err != nil {
		return err
	}
	d.chargeRead(slot)
	if err := d.pread(slot, dst); err != nil {
		return err
	}
	d.observe(OpRead, slot)
	return nil
}

// Write implements Backend.
func (d *File) Write(slot int64, src []byte) error {
	if err := d.checkSlot(slot); err != nil {
		return err
	}
	if err := d.checkWritePayload(src, false); err != nil {
		return err
	}
	d.chargeWrite(slot)
	if err := d.pwrite(slot, src); err != nil {
		return err
	}
	if d.fsyncEvery > 0 {
		d.unsynced++
		if d.unsynced >= d.fsyncEvery {
			if err := d.Sync(); err != nil {
				return err
			}
		}
	}
	d.observe(OpWrite, slot)
	return nil
}

// WriteRaw stores src into slot without charging simulated time or
// touching the counters (unmeasured setup). The fsync policy does not
// apply; setup callers Sync once at the end.
func (d *File) WriteRaw(slot int64, src []byte) error {
	if err := d.checkSlot(slot); err != nil {
		return err
	}
	if err := d.checkWritePayload(src, true); err != nil {
		return err
	}
	return d.pwrite(slot, src)
}

// ReadRaw copies slot's payload into dst without charging simulated
// time or touching the counters.
func (d *File) ReadRaw(slot int64, dst []byte) error {
	if err := d.checkSlot(slot); err != nil {
		return err
	}
	if err := d.checkReadBuf(dst, true); err != nil {
		return err
	}
	return d.pread(slot, dst)
}

// ReadSlots implements Backend: accounting is charged per slot in
// argument order exactly as a Read loop would, but each maximal run of
// contiguous slots is fetched with one preadv burst instead of one
// pread per slot, and advances the clock once by the run's summed
// latency.
func (d *File) ReadSlots(slots []int64, bufs [][]byte) error {
	if err := d.checkReadRun(slots, bufs); err != nil {
		return err
	}
	for start := 0; start < len(slots); {
		end := start + 1
		for end < len(slots) && slots[end] == slots[end-1]+1 {
			end++
		}
		views := d.views[:0]
		var lat time.Duration
		for i := start; i < end; i++ {
			lat += d.readLat(slots[i])
			d.observe(OpRead, slots[i])
			views = append(views, bufs[i][:d.slotSize])
		}
		d.clock.Advance(lat)
		d.views = views[:0]
		if err := d.preadvAt(views, d.off(slots[start])); err != nil {
			return fmt.Errorf("device %s: preadv slots [%d,%d]: %w", d.profile.Name, slots[start], slots[end-1], err)
		}
		start = end
	}
	return nil
}

// WriteSlots implements Backend: per-slot accounting, one pwritev
// burst and one clock advance per contiguous run. Under a periodic
// fsync policy it writes the validated run one Write at a time, so the
// policy's sync points (and the Syncs counter) stay exactly where a
// Write loop puts them.
func (d *File) WriteSlots(slots []int64, bufs [][]byte) error {
	if err := d.checkWriteRun(slots, bufs); err != nil {
		return err
	}
	if d.fsyncEvery > 0 {
		for i, slot := range slots {
			if err := d.Write(slot, bufs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for start := 0; start < len(slots); {
		end := start + 1
		for end < len(slots) && slots[end] == slots[end-1]+1 {
			end++
		}
		views := d.views[:0]
		var lat time.Duration
		for i := start; i < end; i++ {
			lat += d.writeLat(slots[i])
			d.observe(OpWrite, slots[i])
			views = append(views, bufs[i])
		}
		d.clock.Advance(lat)
		d.views = views[:0]
		if err := d.pwritevAt(views, d.off(slots[start])); err != nil {
			return fmt.Errorf("device %s: pwritev slots [%d,%d]: %w", d.profile.Name, slots[start], slots[end-1], err)
		}
		start = end
	}
	return nil
}

// Sync flushes buffered writes to the medium (fsync).
func (d *File) Sync() error {
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("device %s: fsync %s: %w", d.profile.Name, d.path, err)
	}
	d.unsynced = 0
	d.syncs++
	return nil
}

// Syncs returns the number of fsyncs issued (policy-driven and
// explicit).
func (d *File) Syncs() int64 { return d.syncs }

// Close syncs and closes the backing file. The device is unusable
// afterwards.
func (d *File) Close() error {
	if err := d.f.Sync(); err != nil {
		d.f.Close() //horam:errok the fsync failure is the durability signal; close is best effort after it
		return fmt.Errorf("device %s: fsync %s: %w", d.profile.Name, d.path, err)
	}
	return d.f.Close()
}
