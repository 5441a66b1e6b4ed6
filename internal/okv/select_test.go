// The one selector against its branching reference, the refusal of a
// damaged table, and the op path's cost over an in-memory backend.
package okv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// memBackend is a flat in-memory Backend that allocates nothing per
// request: a read's Result aliases the stored block (valid until that
// address is next written), and a write copies Data in.
type memBackend struct {
	blockSize int
	blocks    [][]byte
}

func newMemBackend(n int64, blockSize int) *memBackend {
	m := &memBackend{blockSize: blockSize, blocks: make([][]byte, n)}
	slab := make([]byte, int(n)*blockSize)
	for i := range m.blocks {
		m.blocks[i] = slab[i*blockSize : (i+1)*blockSize]
	}
	return m
}

func (m *memBackend) Batch(reqs []*core.Request) error {
	for _, q := range reqs {
		if q.Op == core.OpWrite {
			copy(m.blocks[q.Addr], q.Data)
		} else {
			q.Result = m.blocks[q.Addr]
		}
	}
	return nil
}
func (m *memBackend) Blocks() int64  { return int64(len(m.blocks)) }
func (m *memBackend) BlockSize() int { return m.blockSize }

// TestSelectMatchesReference: over seeded random candidate sets, the
// masked selector picks what the branching reference picks — target,
// found, full and value length — and on a damaged set flags the same
// first damaged slot. The sets cover the probe key present zero, one
// and two times, keys that differ only in trailing zero bytes, both
// buckets full, damaged slots, and all three op kinds.
func TestSelectMatchesReference(t *testing.T) {
	pool := [][]byte{
		[]byte("k"), []byte("k\x00"), []byte("k\x00\x00"),
		[]byte("ab"), []byte("ab\x00"), []byte("zz"),
	}
	for _, S := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("S=%d", S), func(t *testing.T) {
			s, err := New(Options{
				Backend:        newMemBackend(512, 32),
				SlotsPerBucket: S,
				MaxValueBytes:  64,
				Insecure:       true,
				Seed:           "okv-select-reference",
			})
			if err != nil {
				t.Fatal(err)
			}
			var damaged [][]byte
			for _, blk := range malformedSlots(s.lay) {
				if len(blk) == s.lay.blockSize {
					damaged = append(damaged, blk)
				}
			}
			sc := newOpScratch(s.lay)
			slab := make([]byte, 2*S*s.lay.blockSize)
			rng := rand.New(rand.NewPCG(uint64(S), 0x6f6b76))
			var copies [3]int
			var kinds [3]int
			fulls, corrupts := 0, 0
			for trial := 0; trial < 4000; trial++ {
				kind := opKind(rng.IntN(3))
				probe := pool[rng.IntN(len(pool))]
				empty := rng.IntN(3) // chance of an empty slot, in thirds
				n := 0
				for i := 0; i < 2*S; i++ {
					blk := slab[i*s.lay.blockSize : (i+1)*s.lay.blockSize]
					switch {
					case rng.IntN(40) == 0:
						copy(blk, damaged[rng.IntN(len(damaged))])
					case rng.IntN(3) < empty:
						clear(blk)
					default:
						k := pool[rng.IntN(len(pool))]
						if bytes.Equal(k, probe) {
							n++
						}
						s.lay.encodeSlotInto(blk, k, rng.IntN(s.lay.maxValue+1))
					}
					sc.lookupRs[i].Result = blk
					sc.slotIdx[i] = int64(1000 + i) // distinct: tIdx names a position
				}

				target, found, full, valLen, refErr := s.refSelect(sc, kind, probe)
				sel := s.selectTarget(sc, kind, probe)
				if refErr != nil {
					corrupts++
					if sel.corrupt != 1 || sel.badIdx != sc.slotIdx[target] {
						t.Fatalf("trial %d: reference refuses position %d (%v); masked corrupt=%d badIdx=%d",
							trial, target, refErr, sel.corrupt, sel.badIdx)
					}
					continue
				}
				kinds[kind]++
				copies[min(n, 2)]++
				if full {
					fulls++
				}
				if sel.corrupt != 0 || sel.tIdx != sc.slotIdx[target] || (sel.found == 1) != found ||
					(sel.full == 1) != full || sel.valLen != valLen {
					t.Fatalf("trial %d (kind %d, probe %q): reference target %d found %v full %v valLen %d; masked %+v",
						trial, kind, probe, target, found, full, valLen, sel)
				}
			}
			t.Logf("kinds %v, probe copies 0/1/2+ %v, full %d, damaged %d", kinds, copies, fulls, corrupts)
			for i := range 3 {
				if kinds[i] == 0 || copies[i] == 0 {
					t.Fatalf("coverage: kinds %v, probe copies %v", kinds, copies)
				}
			}
			if fulls == 0 || corrupts == 0 {
				t.Fatalf("coverage: full %d, damaged %d", fulls, corrupts)
			}
		})
	}
}

// TestCorruptSlotRefused: with a malformed block in one of a key's
// candidate slots, Get, Set and Del each refuse with ErrCorruptSlot
// naming the first damaged slot in scan order, and the backend sees
// only the lookup batch — a damaged table is never written. The
// deprecated ConstantTime field must not change any of it.
func TestCorruptSlotRefused(t *testing.T) {
	const key = "victim"
	for _, ct := range []bool{false, true} {
		t.Run(fmt.Sprintf("ConstantTime=%v", ct), func(t *testing.T) {
			open := func(t *testing.T) (*Store, *memBackend, *recordingBackend) {
				t.Helper()
				mem := newMemBackend(512, 32)
				rec := &recordingBackend{Backend: mem}
				s, err := New(Options{
					Backend:        rec,
					SlotsPerBucket: 2,
					MaxValueBytes:  64,
					Insecure:       true,
					Seed:           "okv-corrupt",
					ConstantTime:   ct,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Set([]byte(key), []byte("v")); err != nil {
					t.Fatal(err)
				}
				rec.take()
				return s, mem, rec
			}
			ops := map[string]func(s *Store) error{
				"Get": func(s *Store) error { _, _, err := s.Get([]byte(key)); return err },
				"Set": func(s *Store) error { return s.Set([]byte(key), []byte("new")) },
				"Del": func(s *Store) error { _, err := s.Del([]byte(key)); return err },
			}
			// check damages the candidate positions in ps (in order),
			// runs op, and expects the refusal to name position first.
			check := func(t *testing.T, op string, ps []int, blks [][]byte, first int) {
				t.Helper()
				s, mem, rec := open(t)
				S := s.lay.slots
				b0, b1 := s.buckets([]byte(key))
				bucket := func(p int) int64 { return [2]int64{b0, b1}[p/S] }
				for i, p := range ps {
					mem.blocks[s.lay.slotAddr(s.lay.slotIndex(bucket(p), p%S))] = blks[i]
				}
				err := ops[op](s)
				if !errors.Is(err, ErrCorruptSlot) {
					t.Fatalf("%s = %v, want ErrCorruptSlot", op, err)
				}
				if want := fmt.Sprintf("slot %d of bucket %d:", first%S, bucket(first)); !strings.Contains(err.Error(), want) {
					t.Fatalf("%s error %q does not name %q", op, err, want)
				}
				if got := rec.take(); len(got) != 1 || got[0] != (batchSig{reads: 2 * S}) {
					t.Fatalf("%s: backend saw batches %v, want only the %d-read lookup", op, got, 2*S)
				}
			}
			s0, _, _ := open(t)
			forms := malformedSlots(s0.lay)
			names := make([]string, 0, len(forms))
			for name := range forms {
				names = append(names, name)
			}
			sort.Strings(names)
			for i, name := range names {
				for _, op := range []string{"Get", "Set", "Del"} {
					t.Run(name+"/"+op, func(t *testing.T) {
						p := i % 4 // every candidate position in turn
						check(t, op, []int{p}, [][]byte{forms[name]}, p)
					})
				}
			}
			// Two damaged slots: the first in scan order is named.
			for _, op := range []string{"Get", "Set", "Del"} {
				t.Run("two damaged/"+op, func(t *testing.T) {
					check(t, op, []int{3, 1}, [][]byte{forms["unknown flag"], forms["value length over cap"]}, 1)
				})
			}
		})
	}
}

// BenchmarkAccess runs the op path over memBackend at kv_mixed's
// geometry (16384 blocks of 1 KiB, 2 KiB values, 4-slot buckets, 96
// live keys), rotating a Get hit, a Set and a Get miss, so the figure
// is the KV layer's own CPU and allocations with no ORAM beneath it.
func BenchmarkAccess(b *testing.B) {
	s, err := New(Options{
		Backend:       newMemBackend(16384, 1024),
		MaxValueBytes: 2048,
		Key:           bytes.Repeat([]byte{7}, 32),
	})
	if err != nil {
		b.Fatal(err)
	}
	const keys = 96
	rng := rand.New(rand.NewPCG(1, 2))
	hit := make([][]byte, keys)
	miss := make([][]byte, keys)
	vals := make([][]byte, keys)
	for i := range hit {
		hit[i] = []byte(fmt.Sprintf("c0-key-%06d", i))
		miss[i] = []byte(fmt.Sprintf("c0-key-%06d", keys+i))
		vals[i] = make([]byte, 1+rng.IntN(2048))
		if err := s.Set(hit[i], vals[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		k := (i / 3) % keys
		switch i % 3 {
		case 0:
			if _, ok, err := s.Get(hit[k]); err != nil || !ok {
				b.Fatalf("Get hit: %v %v", ok, err)
			}
		case 1:
			if err := s.Set(hit[k], vals[(k+1)%keys]); err != nil {
				b.Fatal(err)
			}
		case 2:
			if _, ok, err := s.Get(miss[k]); err != nil || ok {
				b.Fatalf("Get miss: %v %v", ok, err)
			}
		}
	}
}
