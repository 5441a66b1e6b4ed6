// CT stash tests: the dense-array constant-time stash is pinned
// differentially against the map stash (the reference semantics), and
// its masked primitives are exercised directly. Both implementations
// sit behind the Store interface, so the differential run drives them
// through identical call sequences.
package stash

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
)

// newPair returns a map stash and a CT stash with the same limit.
func newPair(limit, blockSize int) (*Stash, *CT) {
	return New(limit), NewConstantTime(limit, blockSize)
}

// TestCTDifferentialAgainstMap drives both implementations through a
// deterministic random op mix and asserts every observable — returned
// values, ok flags, errors, Len, Peak, Addrs, the final Drain — is
// identical.
func TestCTDifferentialAgainstMap(t *testing.T) {
	const (
		limit     = 24
		blockSize = 16
		addrSpace = 40 // > limit so ErrFull paths trigger
		ops       = 4000
	)
	ms, cs := newPair(limit, blockSize)

	lcg := uint64(99)
	next := func(mod int) int {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int((lcg >> 33) % uint64(mod))
	}
	pay := func(addr int64, salt int) []byte {
		p := make([]byte, blockSize)
		for i := range p {
			p[i] = byte(int(addr)*31 + salt + i)
		}
		return p
	}

	for i := 0; i < ops; i++ {
		addr := int64(next(addrSpace))
		switch next(6) {
		case 0, 1:
			p := pay(addr, i)
			errM := ms.Put(addr, p)
			errC := cs.Put(addr, p)
			if (errM == nil) != (errC == nil) {
				t.Fatalf("op %d: Put(%d) errs diverge: map %v, ct %v", i, addr, errM, errC)
			}
			if errM != nil && (!errors.As(errM, &ErrFull{}) || !errors.As(errC, &ErrFull{})) {
				t.Fatalf("op %d: Put(%d) non-ErrFull errors: map %v, ct %v", i, addr, errM, errC)
			}
		case 2:
			gM, okM := ms.Get(addr)
			gC, okC := cs.Get(addr)
			if okM != okC || !bytes.Equal(gM, gC) {
				t.Fatalf("op %d: Get(%d) diverges: map %x,%v ct %x,%v", i, addr, gM, okM, gC, okC)
			}
		case 3:
			gM, okM := ms.Take(addr)
			gC, okC := cs.Take(addr)
			if okM != okC || !bytes.Equal(gM, gC) {
				t.Fatalf("op %d: Take(%d) diverges: map %x,%v ct %x,%v", i, addr, gM, okM, gC, okC)
			}
		case 4:
			if hM, hC := ms.Has(addr), cs.Has(addr); hM != hC {
				t.Fatalf("op %d: Has(%d) diverges: map %v, ct %v", i, addr, hM, hC)
			}
		case 5:
			aM, aC := ms.Addrs(), cs.Addrs()
			if len(aM) != len(aC) {
				t.Fatalf("op %d: Addrs lengths diverge: %d vs %d", i, len(aM), len(aC))
			}
			for j := range aM {
				if aM[j] != aC[j] {
					t.Fatalf("op %d: Addrs[%d] diverges: %d vs %d", i, j, aM[j], aC[j])
				}
			}
		}
		if ms.Len() != cs.Len() {
			t.Fatalf("op %d: Len diverges: map %d, ct %d", i, ms.Len(), cs.Len())
		}
		if ms.Peak() != cs.Peak() {
			t.Fatalf("op %d: Peak diverges: map %d, ct %d", i, ms.Peak(), cs.Peak())
		}
	}

	dM, dC := ms.Drain(), cs.Drain()
	if len(dM) != len(dC) {
		t.Fatalf("Drain lengths diverge: %d vs %d", len(dM), len(dC))
	}
	for i := range dM {
		if dM[i].Addr != dC[i].Addr || !bytes.Equal(dM[i].Data, dC[i].Data) {
			t.Fatalf("Drain[%d] diverges: map addr %d, ct addr %d", i, dM[i].Addr, dC[i].Addr)
		}
	}
	if cs.Len() != 0 || ms.Len() != 0 {
		t.Fatal("stashes not empty after Drain")
	}
}

// TestCTLimitFullInsert: at capacity a fresh insert fails with
// ErrFull, a replacement of a resident address still succeeds, and a
// Take reopens exactly one slot — on both implementations.
func TestCTLimitFullInsert(t *testing.T) {
	for name, s := range map[string]Store{
		"map": New(3),
		"ct":  NewConstantTime(3, 8),
	} {
		t.Run(name, func(t *testing.T) {
			for a := int64(0); a < 3; a++ {
				if err := s.Put(a, []byte{byte(a)}); err != nil {
					t.Fatal(err)
				}
			}
			err := s.Put(9, []byte{9})
			var full ErrFull
			if !errors.As(err, &full) || full.Limit != 3 {
				t.Fatalf("Put at capacity: err = %v, want ErrFull{3}", err)
			}
			if s.Len() != 3 {
				t.Fatalf("Len = %d after refused insert", s.Len())
			}
			// Replacing a resident address is not an insert.
			if err := s.Put(1, []byte{0xBB}); err != nil {
				t.Fatalf("replacement at capacity refused: %v", err)
			}
			got, ok := s.Get(1)
			if !ok || !bytes.Equal(got, []byte{0xBB}) {
				t.Fatalf("Get(1) = %x, %v after replacement", got, ok)
			}
			if _, ok := s.Take(2); !ok {
				t.Fatal("Take(2) failed")
			}
			if err := s.Put(9, []byte{9}); err != nil {
				t.Fatalf("insert after Take refused: %v", err)
			}
		})
	}
}

// TestCTDuplicateAddress: Put on a resident address replaces the
// payload without growing the count, for payloads of differing length.
func TestCTDuplicateAddress(t *testing.T) {
	for name, s := range map[string]Store{
		"map": New(0),
		"ct":  NewConstantTime(4, 8),
	} {
		t.Run(name, func(t *testing.T) {
			if err := s.Put(5, []byte("abcdefgh")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(5, []byte("xy")); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d after duplicate Put, want 1", s.Len())
			}
			got, ok := s.Get(5)
			if !ok || string(got) != "xy" {
				t.Fatalf("Get(5) = %q, %v", got, ok)
			}
			if s.Peak() != 1 {
				t.Fatalf("Peak = %d, want 1", s.Peak())
			}
		})
	}
}

// TestCTAddrsSnapshotStable: Addrs returns a sorted snapshot the
// caller owns — mutating it must not corrupt the stash, and a second
// call returns the same contents.
func TestCTAddrsSnapshotStable(t *testing.T) {
	for name, s := range map[string]Store{
		"map": New(0),
		"ct":  NewConstantTime(8, 4),
	} {
		t.Run(name, func(t *testing.T) {
			for _, a := range []int64{9, 3, 7, 1} {
				if err := s.Put(a, []byte{byte(a)}); err != nil {
					t.Fatal(err)
				}
			}
			first := s.Addrs()
			want := []int64{1, 3, 7, 9}
			if !sort.SliceIsSorted(first, func(i, j int) bool { return first[i] < first[j] }) {
				t.Fatalf("Addrs not sorted: %v", first)
			}
			if fmt.Sprint(first) != fmt.Sprint(want) {
				t.Fatalf("Addrs = %v, want %v", first, want)
			}
			for i := range first {
				first[i] = -42 // caller scribbles on the snapshot
			}
			second := s.Addrs()
			if fmt.Sprint(second) != fmt.Sprint(want) {
				t.Fatalf("Addrs after caller mutation = %v, want %v", second, want)
			}
			for _, a := range want {
				if !s.Has(a) {
					t.Fatalf("Has(%d) = false after snapshot mutation", a)
				}
			}
		})
	}
}

// TestCTPutMaskedZeroIsNoOp: a v=0 PutMasked runs the full scan and
// shift machinery but must not change any observable state.
func TestCTPutMaskedZeroIsNoOp(t *testing.T) {
	s := NewConstantTime(4, 4)
	if err := s.Put(2, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMasked(0, 7, NoLeaf, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Has(7) {
		t.Fatalf("masked-off Put changed state: Len=%d Has(7)=%v", s.Len(), s.Has(7))
	}
	// Masked-off insert at capacity must not report ErrFull either.
	for _, a := range []int64{0, 1, 3} {
		if err := s.Put(a, []byte{byte(a)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutMasked(0, 9, NoLeaf, []byte{9}); err != nil {
		t.Fatalf("masked-off Put at capacity: %v", err)
	}
}

// TestCTSnapshotAddrsFixedLength: SnapshotAddrs always yields the full
// capacity-length array with MaxInt64 sentinels past the occupancy.
func TestCTSnapshotAddrsFixedLength(t *testing.T) {
	s := NewConstantTime(5, 4)
	for _, a := range []int64{4, 2} {
		if err := s.Put(a, []byte{byte(a)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.SnapshotAddrs(nil)
	if len(snap) != 5 {
		t.Fatalf("SnapshotAddrs length = %d, want capacity 5", len(snap))
	}
	want := []int64{2, 4, math.MaxInt64, math.MaxInt64, math.MaxInt64}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("SnapshotAddrs[%d] = %d, want %d", i, snap[i], want[i])
		}
	}
}

// TestCTRemoveMasked removes a marked subset in one masked sweep and
// leaves the survivors packed and sorted.
func TestCTRemoveMasked(t *testing.T) {
	s := NewConstantTime(6, 4)
	for _, a := range []int64{10, 20, 30, 40} {
		if err := s.Put(a, []byte{byte(a)}); err != nil {
			t.Fatal(err)
		}
	}
	mask := make([]int, 6)
	mask[0] = 1 // addr 10
	mask[2] = 1 // addr 30
	s.RemoveMasked(mask)
	if s.Len() != 2 {
		t.Fatalf("Len = %d after RemoveMasked, want 2", s.Len())
	}
	if s.Has(10) || s.Has(30) || !s.Has(20) || !s.Has(40) {
		t.Fatalf("wrong survivors: Has(10)=%v Has(20)=%v Has(30)=%v Has(40)=%v",
			s.Has(10), s.Has(20), s.Has(30), s.Has(40))
	}
	addrs := s.Addrs()
	if len(addrs) != 2 || addrs[0] != 20 || addrs[1] != 40 {
		t.Fatalf("Addrs = %v, want [20 40]", addrs)
	}
}
