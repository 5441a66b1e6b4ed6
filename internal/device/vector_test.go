package device

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/simclock"
)

// traceEvent records one hook observation for trace comparison.
type traceEvent struct {
	dev  string
	op   Op
	slot int64
}

func recordTrace(d Backend) *[]traceEvent {
	var tr []traceEvent
	d.SetHook(func(dev string, op Op, slot int64) {
		tr = append(tr, traceEvent{dev, op, slot})
	})
	return &tr
}

// vectorBackends builds each Backend flavour over a fresh store, all
// with the same geometry, so the equality tests below can run against
// every implementation.
func vectorBackends(t *testing.T, slotSize int, slots int64) map[string]func() (Backend, *simclock.Clock) {
	t.Helper()
	return map[string]func() (Backend, *simclock.Clock){
		"sim": func() (Backend, *simclock.Clock) {
			d, clk := newTestDevice(t, PaperHDD(), slotSize, slots)
			return d, clk
		},
		"file": func() (Backend, *simclock.Clock) {
			d, clk, _ := newTestFile(t, PaperHDD(), slotSize, slots, 0)
			return d, clk
		},
		"file-fsync": func() (Backend, *simclock.Clock) {
			d, clk, _ := newTestFile(t, PaperHDD(), slotSize, slots, 2)
			return d, clk
		},
		"tiered": func() (Backend, *simclock.Clock) {
			clk := simclock.New()
			fast, err := New(DRAM(), slotSize, slots/2, clk)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := New(PaperHDD(), slotSize, slots-slots/2, clk)
			if err != nil {
				t.Fatal(err)
			}
			td, err := NewTiered(fast, slow, slots/2, slots)
			if err != nil {
				t.Fatal(err)
			}
			return td, clk
		},
	}
}

// slotPatterns are the access shapes the ORAM layers issue: a
// contiguous run (shuffle quantum), a strided path, a run crossing the
// tiered boundary, and a single slot.
func slotPatterns(slots int64) map[string][]int64 {
	mid := slots / 2
	return map[string][]int64{
		"contiguous": {3, 4, 5, 6, 7, 8},
		"strided":    {1, 5, 2, 9, 0, slots - 1},
		"boundary":   {mid - 2, mid - 1, mid, mid + 1},
		"single":     {mid},
	}
}

// TestVectoredMatchesSequential is the accounting contract of
// ReadSlots/WriteSlots: for every backend and access shape, the
// vectored path must move the same bytes, charge the same simulated
// time, count the same ops and emit the same hook trace as the
// equivalent loop of Read/Write calls.
func TestVectoredMatchesSequential(t *testing.T) {
	const slotSize = 64
	const slots = int64(32)
	for name, mk := range vectorBackends(t, slotSize, slots) {
		for pat, slotIdx := range slotPatterns(slots) {
			t.Run(fmt.Sprintf("%s/%s", name, pat), func(t *testing.T) {
				seqDev, seqClk := mk()
				vecDev, vecClk := mk()

				bufs := make([][]byte, len(slotIdx))
				for i := range bufs {
					bufs[i] = make([]byte, slotSize)
					for j := range bufs[i] {
						bufs[i][j] = byte(i*31 + j)
					}
				}

				seqTrace := recordTrace(seqDev)
				vecTrace := recordTrace(vecDev)

				// Write phase: loop vs vectored.
				for i, s := range slotIdx {
					if err := seqDev.Write(s, bufs[i]); err != nil {
						t.Fatalf("seq Write(%d): %v", s, err)
					}
				}
				if err := vecDev.WriteSlots(slotIdx, bufs); err != nil {
					t.Fatalf("WriteSlots: %v", err)
				}

				// Read phase into fresh buffers.
				seqGot := make([][]byte, len(slotIdx))
				vecGot := make([][]byte, len(slotIdx))
				for i := range slotIdx {
					seqGot[i] = make([]byte, slotSize)
					vecGot[i] = make([]byte, slotSize)
				}
				for i, s := range slotIdx {
					if err := seqDev.Read(s, seqGot[i]); err != nil {
						t.Fatalf("seq Read(%d): %v", s, err)
					}
				}
				if err := vecDev.ReadSlots(slotIdx, vecGot); err != nil {
					t.Fatalf("ReadSlots: %v", err)
				}

				for i := range slotIdx {
					if !bytes.Equal(vecGot[i], bufs[i]) {
						t.Fatalf("slot %d: vectored read returned wrong data", slotIdx[i])
					}
					if !bytes.Equal(seqGot[i], vecGot[i]) {
						t.Fatalf("slot %d: vectored and sequential reads differ", slotIdx[i])
					}
				}
				if s, v := seqDev.Stats(), vecDev.Stats(); s != v {
					t.Fatalf("stats diverge: sequential %+v, vectored %+v", s, v)
				}
				if s, v := seqClk.Now(), vecClk.Now(); s != v {
					t.Fatalf("clock diverges: sequential %v, vectored %v", s, v)
				}
				if len(*seqTrace) != len(*vecTrace) {
					t.Fatalf("trace lengths diverge: %d vs %d", len(*seqTrace), len(*vecTrace))
				}
				for i := range *seqTrace {
					if (*seqTrace)[i] != (*vecTrace)[i] {
						t.Fatalf("trace event %d: sequential %+v, vectored %+v", i, (*seqTrace)[i], (*vecTrace)[i])
					}
				}
			})
		}
	}
}

// TestFileVectoredSyncCounts pins the fsync contract: a vectored write
// burst must trigger exactly the Syncs a sequential loop would.
func TestFileVectoredSyncCounts(t *testing.T) {
	const slotSize = 32
	seq, _, _ := newTestFile(t, PaperHDD(), slotSize, 16, 3)
	vec, _, _ := newTestFile(t, PaperHDD(), slotSize, 16, 3)
	slotIdx := []int64{2, 3, 4, 5, 6, 7, 8}
	bufs := make([][]byte, len(slotIdx))
	for i := range bufs {
		bufs[i] = make([]byte, slotSize)
	}
	for i, s := range slotIdx {
		if err := seq.Write(s, bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := vec.WriteSlots(slotIdx, bufs); err != nil {
		t.Fatal(err)
	}
	if seq.Syncs() != vec.Syncs() {
		t.Fatalf("sync counts diverge: sequential %d, vectored %d", seq.Syncs(), vec.Syncs())
	}
}

// TestVectoredValidation pins the argument contract shared by every
// implementation: a bad request is refused whole, before any slot of it
// is written, billed or timed — under every fsync policy.
func TestVectoredValidation(t *testing.T) {
	const slotSize = 16
	for name, mk := range vectorBackends(t, slotSize, 8) {
		t.Run(name, func(t *testing.T) {
			d, clk := mk()
			good := [][]byte{make([]byte, slotSize)}
			two := [][]byte{make([]byte, slotSize), make([]byte, slotSize)}
			for _, tc := range []struct {
				what string
				op   func() error
			}{
				{"ReadSlots with mismatched slot/buffer counts", func() error { return d.ReadSlots([]int64{0, 1}, good) }},
				{"ReadSlots with an out-of-range slot", func() error { return d.ReadSlots([]int64{9}, good) }},
				{"WriteSlots with a short payload", func() error { return d.WriteSlots([]int64{0}, [][]byte{make([]byte, 8)}) }},
				{"WriteSlots with an out-of-range slot after a good one", func() error { return d.WriteSlots([]int64{0, 9}, two) }},
			} {
				stats, now := d.Stats(), clk.Now()
				if err := tc.op(); err == nil {
					t.Errorf("%s: accepted", tc.what)
				}
				if got := d.Stats(); got != stats {
					t.Errorf("%s: stats moved from %+v to %+v", tc.what, stats, got)
				}
				if got := clk.Now(); got != now {
					t.Errorf("%s: clock moved from %v to %v", tc.what, now, got)
				}
			}
			if err := d.ReadSlots(nil, nil); err != nil {
				t.Errorf("empty vectored op failed: %v", err)
			}
		})
	}
}
