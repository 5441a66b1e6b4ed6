package blockcipher

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func testKey() []byte {
	k := make([]byte, 32)
	for i := range k {
		k[i] = byte(i * 7)
	}
	return k
}

func newTestSealer(t *testing.T) *AESSealer {
	t.Helper()
	s, err := NewAESSealer(testKey(), NewRNGFromString("sealer-test"))
	if err != nil {
		t.Fatalf("NewAESSealer: %v", err)
	}
	return s
}

func TestSealOpenRoundTrip(t *testing.T) {
	s := newTestSealer(t)
	for _, n := range []int{0, 1, 15, 16, 17, 1024, 4096} {
		pt := make([]byte, n)
		for i := range pt {
			pt[i] = byte(i)
		}
		ct, err := s.Seal(pt)
		if err != nil {
			t.Fatalf("Seal(%d bytes): %v", n, err)
		}
		if len(ct) != n+s.Overhead() {
			t.Fatalf("len(ct) = %d, want %d", len(ct), n+s.Overhead())
		}
		got, err := s.Open(ct)
		if err != nil {
			t.Fatalf("Open(%d bytes): %v", n, err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("round trip of %d bytes mismatched", n)
		}
	}
}

func TestSealNonDeterministic(t *testing.T) {
	s := newTestSealer(t)
	pt := []byte("same plaintext sealed twice")
	a, _ := s.Seal(pt)
	b, _ := s.Seal(pt)
	if bytes.Equal(a, b) {
		t.Fatal("two Seals of the same plaintext produced identical ciphertext; blocks would be linkable across shuffles")
	}
}

func TestOpenRejectsTamperedCiphertext(t *testing.T) {
	s := newTestSealer(t)
	ct, _ := s.Seal([]byte("sensitive"))
	for _, pos := range []int{0, nonceSize, len(ct) - 1} {
		bad := make([]byte, len(ct))
		copy(bad, ct)
		bad[pos] ^= 0x01
		if _, err := s.Open(bad); err != ErrAuth {
			t.Fatalf("Open(tampered at %d) = %v, want ErrAuth", pos, err)
		}
	}
}

func TestOpenRejectsShortCiphertext(t *testing.T) {
	s := newTestSealer(t)
	for _, n := range []int{0, 1, nonceSize, nonceSize + tagSize - 1} {
		if _, err := s.Open(make([]byte, n)); err != ErrCiphertext {
			t.Fatalf("Open(%d bytes) = %v, want ErrCiphertext", n, err)
		}
	}
}

func TestNewAESSealerRejectsBadKey(t *testing.T) {
	if _, err := NewAESSealer(make([]byte, 16), NewRNGFromString("x")); err == nil {
		t.Fatal("NewAESSealer accepted a 16-byte master key, want error")
	}
	if _, err := NewAESSealer(testKey(), nil); err == nil {
		t.Fatal("NewAESSealer accepted a nil RNG, want error")
	}
}

func TestSealOpenProperty(t *testing.T) {
	s := newTestSealer(t)
	f := func(pt []byte) bool {
		ct, err := s.Seal(pt)
		if err != nil {
			return false
		}
		got, err := s.Open(ct)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNullSealer(t *testing.T) {
	var s NullSealer
	pt := []byte("hello")
	ct, err := s.Seal(pt)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if !bytes.Equal(ct, pt) {
		t.Fatal("NullSealer.Seal altered data")
	}
	// Must copy, not alias.
	ct[0] = 'X'
	if pt[0] == 'X' {
		t.Fatal("NullSealer.Seal aliases its input")
	}
	got, err := s.Open(ct)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, ct) {
		t.Fatal("NullSealer.Open altered data")
	}
	if s.Overhead() != 0 {
		t.Fatalf("Overhead() = %d, want 0", s.Overhead())
	}
}

func TestPRFDeterministic(t *testing.T) {
	p1, err := NewPRF(testKey())
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewPRF(testKey())
	a := p1.Derive("label", 100)
	b := p2.Derive("label", 100)
	if !bytes.Equal(a, b) {
		t.Fatal("PRF.Derive is not deterministic across instances")
	}
	if len(a) != 100 {
		t.Fatalf("Derive length = %d, want 100", len(a))
	}
	c := p1.Derive("other", 100)
	if bytes.Equal(a, c) {
		t.Fatal("PRF.Derive gave identical output for different labels")
	}
}

func TestPRFRejectsShortKey(t *testing.T) {
	if _, err := NewPRF(make([]byte, 8)); err == nil {
		t.Fatal("NewPRF accepted an 8-byte key")
	}
}

func TestPRFUint64Labels(t *testing.T) {
	p, _ := NewPRF(testKey())
	if p.Uint64("a", nil, 0) == p.Uint64("a", nil, 1) {
		t.Fatal("PRF.Uint64 identical for different indexes")
	}
	if p.Uint64("a", nil, 0) != p.Uint64("a", nil, 0) {
		t.Fatal("PRF.Uint64 not deterministic")
	}
	if p.Uint64("a", nil, 0) == p.Uint64("b", nil, 0) {
		t.Fatal("PRF.Uint64 identical for different labels")
	}
}

// TestPRFUint64Pinned pins outputs computed when Uint64 hashed one
// concatenated label: okv's bucket placement is persisted, so the
// split label‖suffix form must reproduce them bit for bit, from any
// number of goroutines at once.
func TestPRFUint64Pinned(t *testing.T) {
	p, _ := NewPRF(testKey())
	pins := []struct {
		label  string
		suffix []byte
		index  uint64
		want   uint64
	}{
		{"okv-bucket-0|", []byte("alice"), 0, 0xd94e88b3d52daaeb},
		{"okv-bucket-0|alice", nil, 0, 0xd94e88b3d52daaeb},
		{"okv-bucket-1|", []byte("alice"), 0, 0x5e7509e85c017152},
		{"okv-dummy|", []byte("\x00\xffk"), 0, 0x925d95450bdeb397},
		{"a", nil, 7, 0xa38d9ece4953d021},
		{"", nil, 1 << 40, 0x7c27ed62c55183a6},
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for _, c := range pins {
					if got := p.Uint64(c.label, c.suffix, c.index); got != c.want {
						t.Errorf("Uint64(%q, %q, %d) = %#x, want %#x", c.label, c.suffix, c.index, got, c.want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPRFUint64AllocatesNothing: okv hashes every operation's key
// three times, so a call reuses a pooled HMAC state and scratch.
func TestPRFUint64AllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	p, _ := NewPRF(testKey())
	key := []byte("a key longer than thirty-two bytes, so no stack buffer hides a concatenation")
	if avg := testing.AllocsPerRun(200, func() {
		p.Uint64("okv-bucket-0|", key, 0)
	}); avg != 0 {
		t.Errorf("PRF.Uint64 allocates %.1f times per call, want 0", avg)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a := NewRNGFromString("seed")
	b := NewRNGFromString("seed")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("two RNGs with equal seeds diverged")
		}
	}
	c := NewRNGFromString("different")
	if a.Uint64() == c.Uint64() {
		t.Fatal("RNGs with different seeds emitted equal first values (suspicious)")
	}
}

// TestBootRNGNeverReplays: two boot RNGs from one seed — two boots of
// one durable sealer — must draw different streams, and differ from
// the seeded stream too.
func TestBootRNGNeverReplays(t *testing.T) {
	seed := []byte("sealer-rng-epoch-0")
	a, b := NewBootRNG(seed), NewBootRNG(seed)
	if a.Uint64() == b.Uint64() {
		t.Fatal("two boot RNGs from one seed emitted equal first values")
	}
	if NewBootRNG(seed).Uint64() == NewRNG(seed).Uint64() {
		t.Fatal("a boot RNG replays the seeded stream")
	}
	if string(seed) != "sealer-rng-epoch-0" {
		t.Fatal("NewBootRNG modified its seed")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNGFromString("intn")
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	r := NewRNGFromString("panic")
	for _, n := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNGFromString("uniform")
	const buckets = 10
	const draws = 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	// Chi-square with 9 dof; 99.9% critical value is 27.88.
	expected := float64(draws) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("Intn distribution chi2 = %.2f > 27.88; not uniform", chi2)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNGFromString("float")
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 || math.IsNaN(f) {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNGFromString("perm")
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestRNGForkIndependent(t *testing.T) {
	r := NewRNGFromString("root")
	a := r.Fork("a")
	b := r.Fork("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked RNGs emitted %d equal values out of 64", same)
	}
}

func TestRNGForkDeterministicFromRoot(t *testing.T) {
	mk := func() uint64 {
		r := NewRNGFromString("root2")
		return r.Fork("child").Uint64()
	}
	if mk() != mk() {
		t.Fatal("Fork is not a pure function of the root seed")
	}
}

func TestRNGReadNeverFails(t *testing.T) {
	r := NewRNGFromString("read")
	buf := make([]byte, 3000) // spans multiple internal refills
	n, err := r.Read(buf)
	if n != len(buf) || err != nil {
		t.Fatalf("Read = (%d, %v), want (%d, nil)", n, err, len(buf))
	}
	allZero := true
	for _, b := range buf {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		t.Fatal("Read returned all zeros")
	}
}

func BenchmarkSeal1KB(b *testing.B) {
	s, _ := NewAESSealer(testKey(), NewRNGFromString("bench"))
	pt := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen1KB(b *testing.B) {
	s, _ := NewAESSealer(testKey(), NewRNGFromString("bench"))
	ct, _ := s.Seal(make([]byte, 1024))
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Open(ct); err != nil {
			b.Fatal(err)
		}
	}
}
