package horam

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/posmap"
)

// missModes runs fn once per controller a miss can be served in:
// default and constant-time.
func missModes(t *testing.T, fn func(t *testing.T, o *ORAM, model map[int64][]byte)) {
	for _, ct := range []bool{false, true} {
		t.Run(fmt.Sprintf("constantTime=%v", ct), func(t *testing.T) {
			o, model := seeded(t, ct)
			fn(t, o, model)
			if st := o.Stats(); st.Requests != st.Hits+st.Misses {
				t.Fatalf("Stats: Requests %d != Hits %d + Misses %d", st.Requests, st.Hits, st.Misses)
			}
		})
	}
}

// seeded builds an instance whose every block holds a distinct known
// payload and drives it across at least one shuffle, so a share of
// those payloads is back in storage. It returns the instance at a
// period boundary together with the map model of its contents.
func seeded(t *testing.T, constantTime bool) (*ORAM, map[int64][]byte) {
	t.Helper()
	cfg := testConfig(64, 32, 64)
	cfg.ConstantTime = constantTime
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[int64][]byte)
	var reqs []*Request
	for a := int64(0); a < cfg.Blocks; a++ {
		model[a] = fill(cfg.BlockSize, byte(a+1))
		reqs = append(reqs, &Request{Op: OpWrite, Addr: a, Data: model[a]})
	}
	if err := o.RunBatch(reqs); err != nil {
		t.Fatal(err)
	}
	if err := o.FinishShuffle(); err != nil {
		t.Fatal(err)
	}
	if o.Stats().Shuffles == 0 {
		t.Fatal("seeding ran no shuffle; nothing written is back in storage")
	}
	return o, model
}

// storageAddr returns the lowest address whose block sits in the
// storage tier, i.e. whose next request is a miss.
func storageAddr(t *testing.T, o *ORAM) int64 {
	t.Helper()
	for a := int64(0); a < o.cfg.Blocks; a++ {
		e, err := o.perm.Lookup(a)
		if err != nil {
			t.Fatal(err)
		}
		if e.Tier == posmap.TierStorage {
			return a
		}
	}
	t.Fatal("no storage-resident block")
	return 0
}

// serveLone submits r alone, drains, and checks it took exactly one
// scheduler cycle.
func serveLone(t *testing.T, o *ORAM, r *Request) {
	t.Helper()
	before := o.Stats().Cycles
	if err := o.Submit(r); err != nil {
		t.Fatal(err)
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := o.Stats().Cycles - before; got != 1 {
		t.Fatalf("lone request took %d cycles, want 1", got)
	}
}

func TestLoneReadMissServedByItsLoad(t *testing.T) {
	missModes(t, func(t *testing.T, o *ORAM, model map[int64][]byte) {
		a := storageAddr(t, o)
		before := o.Stats()
		r := &Request{Op: OpRead, Addr: a}
		serveLone(t, o, r)
		if !bytes.Equal(r.Result, model[a]) {
			t.Fatalf("Read(%d) = %x, want %x", a, r.Result, model[a])
		}
		st := o.Stats()
		if st.Misses-before.Misses != 1 || st.Hits != before.Hits {
			t.Fatalf("misses +%d hits +%d, want +1 +0", st.Misses-before.Misses, st.Hits-before.Hits)
		}
	})
}

func TestLoneWriteMissReturnsPreviousContents(t *testing.T) {
	missModes(t, func(t *testing.T, o *ORAM, model map[int64][]byte) {
		a := storageAddr(t, o)
		w := &Request{Op: OpWrite, Addr: a, Data: fill(o.cfg.BlockSize, 0xEE)}
		serveLone(t, o, w)
		if !bytes.Equal(w.Result, model[a]) {
			t.Fatalf("write miss returned %x, want previous %x", w.Result, model[a])
		}
		r := &Request{Op: OpRead, Addr: a}
		serveLone(t, o, r)
		if !bytes.Equal(r.Result, w.Data) {
			t.Fatalf("read after write miss = %x, want %x", r.Result, w.Data)
		}
	})
}

func TestSameAddressMissThenHitInOneWindow(t *testing.T) {
	for _, writeFirst := range []bool{true, false} {
		name := "read-then-write"
		if writeFirst {
			name = "write-then-read"
		}
		t.Run(name, func(t *testing.T) {
			missModes(t, func(t *testing.T, o *ORAM, model map[int64][]byte) {
				a := storageAddr(t, o)
				reqs := [2]*Request{{Op: OpRead, Addr: a}, {Op: OpRead, Addr: a}}
				w := reqs[1]
				if writeFirst {
					w = reqs[0]
				}
				w.Op, w.Data = OpWrite, fill(o.cfg.BlockSize, 0xA5)
				if err := o.Submit(reqs[0], reqs[1]); err != nil {
					t.Fatal(err)
				}
				before := o.Stats()
				for cycle, wantDone := range [][2]bool{{true, false}, {true, true}} {
					if err := o.cycle(); err != nil {
						t.Fatal(err)
					}
					for i, r := range reqs {
						if r.done != wantDone[i] {
							t.Fatalf("after cycle %d request %d done=%v, want %v", cycle+1, i, r.done, wantDone[i])
						}
					}
				}
				if o.Pending() != 0 {
					t.Fatalf("%d requests still queued", o.Pending())
				}
				st := o.Stats()
				if st.Misses-before.Misses != 1 || st.Hits-before.Hits != 1 {
					t.Fatalf("misses +%d hits +%d, want +1 +1", st.Misses-before.Misses, st.Hits-before.Hits)
				}
				// Each request sees the model as it stood when it ran.
				for _, r := range reqs {
					if !bytes.Equal(r.Result, model[a]) {
						t.Fatalf("op %d on %d returned %x, want %x", r.Op, a, r.Result, model[a])
					}
					if r.Op == OpWrite {
						model[a] = r.Data
					}
				}
				got, err := o.Read(a)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, model[a]) {
					t.Fatalf("Read(%d) = %x, want %x", a, got, model[a])
				}
			})
		})
	}
}

// TestLoneHitAndLoneMissTakeOneCycle closes the latency channel a
// client-side clock could read: a request alone in the ROB finishes in
// one scheduler cycle whether it hits or misses, and its simulated
// latency is that one cycle's access charge in both cases.
func TestLoneHitAndLoneMissTakeOneCycle(t *testing.T) {
	missModes(t, func(t *testing.T, o *ORAM, model map[int64][]byte) {
		miss := &Request{Op: OpRead, Addr: storageAddr(t, o)}
		hit := &Request{Op: OpRead, Addr: miss.Addr} // resident once the miss lands
		for _, c := range []struct {
			name string
			r    *Request
			hit  bool
		}{{"miss", miss, false}, {"hit", hit, true}} {
			before, access := o.Stats(), o.AccessTime()
			serveLone(t, o, c.r)
			charge := o.AccessTime() - access
			if got := c.r.DoneSim - c.r.SubmitSim; got != charge || charge <= 0 {
				t.Fatalf("lone %s latency %v, want one cycle's charge %v", c.name, got, charge)
			}
			if hit := o.Stats().Hits-before.Hits == 1; hit != c.hit {
				t.Fatalf("lone %s served as hit=%v", c.name, hit)
			}
			if !bytes.Equal(c.r.Result, model[c.r.Addr]) {
				t.Fatalf("lone %s read %x, want %x", c.name, c.r.Result, model[c.r.Addr])
			}
		}
	})
}
