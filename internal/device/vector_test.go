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

// rawImage reads every slot of d through the uncharged path.
func rawImage(t *testing.T, d Backend) [][]byte {
	t.Helper()
	img := make([][]byte, d.Slots())
	for s := range img {
		img[s] = make([]byte, d.SlotSize())
		if err := d.ReadRaw(int64(s), img[s]); err != nil {
			t.Fatalf("ReadRaw(%d): %v", s, err)
		}
	}
	return img
}

func sameImage(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	for s := range want {
		if !bytes.Equal(got[s], want[s]) {
			t.Fatalf("%s: slot %d differs", what, s)
		}
	}
}

// TestWriteRawSlots pins the uncharged run write on every backend: a
// run in permuted slot order — coalescible stretches, one across the
// tiered boundary, between single slots — leaves the image a WriteRaw
// loop leaves, with no counter, clock or hook touched; and a request
// with a bad slot or a short buffer late in the run is refused before
// any slot of it is written.
func TestWriteRawSlots(t *testing.T) {
	const slotSize = 48
	const slots = int64(32)
	order := []int64{12, 13, 14, 15, 16, 17, 18, 19, 3, 30, 31, 0, 1, 2, 27, 28, 29, 4, 5, 6, 7, 8, 9, 10, 11, 26, 20, 21, 22, 23, 24, 25}
	payload := func(slot int64, round byte) []byte {
		b := make([]byte, slotSize)
		for j := range b {
			b[j] = byte(slot)*7 + byte(j) + round
		}
		return b
	}
	for name, mk := range vectorBackends(t, slotSize, slots) {
		t.Run(name, func(t *testing.T) {
			loopDev, _ := mk()
			runDev, clk := mk()
			trace := recordTrace(runDev)
			bufs := make([][]byte, len(order))
			for i, s := range order {
				bufs[i] = payload(s, 1)
				if err := loopDev.WriteRaw(s, bufs[i]); err != nil {
					t.Fatalf("WriteRaw(%d): %v", s, err)
				}
			}
			if err := runDev.WriteRawSlots(order, bufs); err != nil {
				t.Fatalf("WriteRawSlots: %v", err)
			}
			want := rawImage(t, loopDev)
			sameImage(t, "permuted run vs WriteRaw loop", rawImage(t, runDev), want)

			last := len(order) - 1
			for _, tc := range []struct {
				what  string
				slots []int64
				bufs  [][]byte
			}{
				{"out-of-range slot last", append(append([]int64(nil), order[:last]...), slots), nil},
				{"negative slot last", append(append([]int64(nil), order[:last]...), -1), nil},
				{"short buffer last", order, [][]byte{make([]byte, slotSize-1)}},
				{"long buffer last", order, [][]byte{make([]byte, slotSize+1)}},
				{"one buffer missing", order, [][]byte{}},
			} {
				bad := make([][]byte, len(order))
				for i, s := range order {
					bad[i] = payload(s, 2)
				}
				if tc.bufs != nil {
					bad = append(bad[:last], tc.bufs...)
				}
				if err := runDev.WriteRawSlots(tc.slots, bad); err == nil {
					t.Errorf("%s: accepted", tc.what)
				}
				sameImage(t, tc.what, rawImage(t, runDev), want)
			}

			if st := runDev.Stats(); st != (Stats{}) {
				t.Errorf("stats moved: %+v", st)
			}
			if now := clk.Now(); now != 0 {
				t.Errorf("clock moved to %v", now)
			}
			if len(*trace) != 0 {
				t.Errorf("hook fired %d times, first %+v", len(*trace), (*trace)[0])
			}
		})
	}
}
