package stash

import (
	"errors"
	"testing"
)

func TestPutGetTake(t *testing.T) {
	s := New(0)
	if err := s.Put(7, []byte("seven")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(7)
	if !ok || string(got) != "seven" {
		t.Fatalf("Get(7) = %q, %v", got, ok)
	}
	if !s.Has(7) {
		t.Fatal("Has(7) = false after Put")
	}
	got, ok = s.Take(7)
	if !ok || string(got) != "seven" {
		t.Fatalf("Take(7) = %q, %v", got, ok)
	}
	if s.Has(7) {
		t.Fatal("Has(7) = true after Take")
	}
	if _, ok := s.Take(7); ok {
		t.Fatal("second Take(7) succeeded")
	}
}

func TestGetMissing(t *testing.T) {
	s := New(0)
	if _, ok := s.Get(42); ok {
		t.Fatal("Get on empty stash returned ok")
	}
}

func TestPutReplaces(t *testing.T) {
	s := New(0)
	s.Put(1, []byte("a"))
	s.Put(1, []byte("b"))
	if s.Len() != 1 {
		t.Fatalf("Len() = %d after replacing, want 1", s.Len())
	}
	got, _ := s.Get(1)
	if string(got) != "b" {
		t.Fatalf("Get(1) = %q, want b", got)
	}
}

func TestLimitEnforced(t *testing.T) {
	s := New(2)
	if err := s.Put(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, nil); err != nil {
		t.Fatal(err)
	}
	err := s.Put(3, nil)
	var full ErrFull
	if !errors.As(err, &full) {
		t.Fatalf("Put beyond limit = %v, want ErrFull", err)
	}
	if full.Limit != 2 {
		t.Fatalf("ErrFull.Limit = %d, want 2", full.Limit)
	}
	// Replacing an existing key at capacity is allowed.
	if err := s.Put(2, []byte("x")); err != nil {
		t.Fatalf("replacement Put at capacity failed: %v", err)
	}
	if s.Limit() != 2 {
		t.Fatalf("Limit() = %d", s.Limit())
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	s := New(0)
	s.Put(1, nil)
	s.Put(2, nil)
	s.Put(3, nil)
	s.Take(1)
	s.Take(2)
	if s.Peak() != 3 {
		t.Fatalf("Peak() = %d, want 3", s.Peak())
	}
	if s.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", s.Len())
	}
}

func TestAddrsSorted(t *testing.T) {
	s := New(0)
	for _, a := range []int64{9, 1, 5, 3} {
		s.Put(a, nil)
	}
	addrs := s.Addrs()
	want := []int64{1, 3, 5, 9}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("Addrs() = %v, want %v", addrs, want)
		}
	}
}

func TestDrain(t *testing.T) {
	s := New(0)
	s.Put(2, []byte("two"))
	s.Put(1, []byte("one"))
	blocks := s.Drain()
	if len(blocks) != 2 {
		t.Fatalf("Drain() returned %d blocks, want 2", len(blocks))
	}
	if blocks[0].Addr != 1 || string(blocks[0].Data) != "one" {
		t.Fatalf("Drain()[0] = %+v", blocks[0])
	}
	if blocks[1].Addr != 2 || string(blocks[1].Data) != "two" {
		t.Fatalf("Drain()[1] = %+v", blocks[1])
	}
	if s.Len() != 0 {
		t.Fatalf("Len() = %d after Drain, want 0", s.Len())
	}
	// Peak survives a drain.
	if s.Peak() != 2 {
		t.Fatalf("Peak() = %d after Drain, want 2", s.Peak())
	}
}

func TestErrFullMessage(t *testing.T) {
	e := ErrFull{Limit: 5}
	if e.Error() == "" {
		t.Fatal("empty error message")
	}
}

// BenchmarkAppendAddrsAfterDrain measures the sorted address walk of a
// stash that once held a whole tree's worth of blocks and now holds a
// handful: the shape eviction sees on every path write after a drain.
func BenchmarkAppendAddrsAfterDrain(b *testing.B) {
	s := New(0)
	for a := int64(0); a < 2048; a++ {
		if err := s.Put(a, nil); err != nil {
			b.Fatal(err)
		}
	}
	s.Drain()
	for a := int64(0); a < 4; a++ {
		if err := s.Put(a*512, nil); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]int64, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.AppendAddrs(dst[:0])
	}
	if len(dst) != 4 {
		b.Fatalf("AppendAddrs returned %d addresses, want 4", len(dst))
	}
}
