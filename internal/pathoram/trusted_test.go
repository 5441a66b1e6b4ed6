package pathoram

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/oramtree"
	"repro/internal/record"
	"repro/internal/simclock"
	"repro/internal/stash"
)

// Tree-top caching (Config.Trusted) must be a pure projection of the
// bus: with the top k levels held in the controller, the device sees
// the k = 0 trace with every slot below T = TopSlots(k) dropped and the
// rest shifted down by T, and the caller sees the same results.

// trustedBlocks sizes the projection tests' ORAM: a 5-level tree.
const trustedBlocks = 64

// slotEvent is one device access without its payload: sealed bytes
// differ across k (fewer seals shift the nonce stream), slots do not.
type slotEvent struct {
	write bool
	slot  int64
}

// trustedOutcome is what one run of the stream shows.
type trustedOutcome struct {
	results []byte           // every byte the ORAM handed back
	top     int64            // trusted tree slots, TopSlots(k)
	trace   []slotEvent      // the device trace
	export  map[int64][]byte // ExportState's blocks at the end
	slots   []stash.Block    // the device's final records, in slot order
}

// trustedRun builds an ORAM with k trusted levels over a recording
// device sized exactly for the device-resident slots, drives one fixed
// read/write/DummyAccess/DrainAll stream through it, and returns what
// the caller and the bus saw.
func trustedRun(t *testing.T, ct bool, k int) trustedOutcome {
	t.Helper()
	cfg := testConfig(trustedBlocks, 32)
	cfg.ConstantTime = ct
	cfg.Trusted = k
	geom, err := oramtree.ForCapacity(2*cfg.Blocks, cfg.Z)
	if err != nil {
		t.Fatal(err)
	}
	top := geom.TopSlots(k)
	dev, err := device.New(device.DRAM(), cfg.SlotSize(), geom.Slots()-top, simclock.New())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recDev{Backend: dev}
	o, err := New(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	drains := 0
	rng := blockcipher.NewRNGFromString("pathoram-trusted/stream")
	for i := 0; i < 400; i++ {
		addr := rng.Int63n(cfg.Blocks)
		switch rng.Intn(8) {
		case 0, 1, 2:
			got, err := o.Read(addr)
			if err != nil {
				t.Fatalf("k=%d op %d: read %d: %v", k, i, addr, err)
			}
			out.Write(got)
		case 3, 4, 5:
			if err := o.Write(addr, payload(cfg.BlockSize, byte(i))); err != nil {
				t.Fatalf("k=%d op %d: write %d: %v", k, i, addr, err)
			}
		case 6:
			if err := o.DummyAccess(); err != nil {
				t.Fatal(err)
			}
		case 7:
			if i%5 != 0 {
				continue // drain rarely, so the tree fills between drains
			}
			blocks, err := o.DrainAll()
			if err != nil {
				t.Fatal(err)
			}
			drains++
			for _, b := range blocks {
				fmt.Fprintf(&out, "drain %d:", b.Addr)
				out.Write(b.Data)
				// Put the block back so later reads find it.
				if err := o.Write(b.Addr, b.Data); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if drains == 0 {
		t.Fatal("stream never drained the tree")
	}
	fmt.Fprintf(&out, "real=%d", o.RealCount())
	run := trustedOutcome{results: out.Bytes(), top: top, export: map[int64][]byte{}}
	for _, e := range rec.log {
		run.trace = append(run.trace, slotEvent{write: e.write, slot: e.slot})
	}
	_, blocks, _, err := o.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if k > 0 && len(blocks) <= o.StashLen() {
		t.Fatalf("k=%d: no real block held in the trusted top at the end of the stream", k)
	}
	for _, b := range blocks {
		run.export[b.Addr] = b.Data
	}
	sealed := make([]byte, dev.SlotSize())
	for slot := int64(0); slot < dev.Slots(); slot++ {
		if err := dev.ReadRaw(slot, sealed); err != nil {
			t.Fatal(err)
		}
		addr, data, err := o.codec.OpenInto(make([]byte, o.codec.PtSize()), sealed)
		if err != nil {
			t.Fatal(err)
		}
		run.slots = append(run.slots, stash.Block{Addr: addr, Data: data})
	}
	return run
}

// TestTrustedTopIsTraceProjection runs the same stream at k = 0, 1,
// ⌊(L+1)/2⌋ and L, in default and constant-time mode, and checks every
// run against the k = 0 default run: identical results, a device trace
// equal to its projection past the trusted slots, and an ExportState
// that hands out exactly the k = 0 stash plus what the k = 0 tree holds
// in those slots.
func TestTrustedTopIsTraceProjection(t *testing.T) {
	levels := testGeometryLevels(t)
	base := trustedRun(t, false, 0)
	for _, ct := range []bool{false, true} {
		for _, k := range []int{0, 1, (levels + 1) / 2, levels} {
			t.Run(fmt.Sprintf("constantTime=%v/k=%d", ct, k), func(t *testing.T) {
				run := trustedRun(t, ct, k)
				if !bytes.Equal(run.results, base.results) {
					t.Fatalf("results (%d bytes) differ from k=0's (%d bytes)", len(run.results), len(base.results))
				}

				var proj []slotEvent
				for _, e := range base.trace {
					if e.slot >= run.top {
						proj = append(proj, slotEvent{write: e.write, slot: e.slot - run.top})
					}
				}
				if k > 0 && len(proj) == len(base.trace) {
					t.Fatalf("projection dropped no slot (T=%d)", run.top)
				}
				if len(run.trace) != len(proj) {
					t.Fatalf("trace has %d events, projection of k=0 has %d (T=%d)", len(run.trace), len(proj), run.top)
				}
				for i := range proj {
					if run.trace[i] != proj[i] {
						t.Fatalf("event %d: %+v, projection %+v (T=%d)", i, run.trace[i], proj[i], run.top)
					}
				}

				want := maps.Clone(base.export)
				for _, b := range base.slots[:run.top] {
					if b.Addr != record.DummyAddr {
						want[b.Addr] = b.Data
					}
				}
				if !maps.EqualFunc(run.export, want, bytes.Equal) {
					t.Fatalf("ExportState handed out %d blocks, want the k=0 stash plus its top slots' %d", len(run.export), len(want))
				}
			})
		}
	}
}

// testGeometryLevels is the tree height trustedRun builds.
func testGeometryLevels(t *testing.T) int {
	t.Helper()
	geom, err := oramtree.ForCapacity(2*trustedBlocks, 4)
	if err != nil {
		t.Fatal(err)
	}
	return geom.Levels
}

func TestTrustedLevelsValidated(t *testing.T) {
	cfg := testConfig(trustedBlocks, 32)
	cfg.Trusted = -1
	if _, err := New(cfg, nil); err == nil {
		t.Error("accepted negative Trusted")
	}
	cfg.Trusted = testGeometryLevels(t) + 1
	dev, err := device.New(device.DRAM(), cfg.SlotSize(), 1024, simclock.New())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg, dev); err == nil {
		t.Error("accepted more trusted levels than the tree has")
	}
}
