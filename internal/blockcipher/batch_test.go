package blockcipher

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"
)

// fill writes a deterministic pattern so records are distinguishable.
func fill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i*13)
	}
}

// runOf builds n deterministic plaintexts of size bytes each, the last
// one short by trim bytes, so a run can sit exactly on either side of
// the minShare floor.
func runOf(n, size, trim int) [][]byte {
	pts := make([][]byte, n)
	for i := range pts {
		pts[i] = make([]byte, size)
		fill(pts[i], byte(i))
	}
	pts[n-1] = pts[n-1][:size-trim]
	return pts
}

// sealBuffers returns one output buffer per record for sealing pts (or
// opening into pts, when overhead is 0).
func sealBuffers(pts [][]byte, overhead int) [][]byte {
	outs := make([][]byte, len(pts))
	for i, pt := range pts {
		outs[i] = make([]byte, len(pt)+overhead)
	}
	return outs
}

// TestBatchMatchesSequential is the determinism contract of the worker
// pool: for the same RNG state, SealBatch must produce byte-for-byte
// the sealed records a loop of Seal calls would, at every worker
// count. The device-trace equality tests upstack depend on this. The
// runs sit one byte below the minShare floor (inline at any worker
// count), exactly on it (two workers) and above it.
func TestBatchMatchesSequential(t *testing.T) {
	runs := []struct {
		name          string
		n, size, trim int
		wantFanAtWide int // fanWorkers at workers=16
	}{
		{"below-floor", 32, 2 * minShare / 32, 1, 1},
		{"at-floor", 32, 2 * minShare / 32, 0, 2},
		{"above-floor", 37, 264, 0, 2},
	}
	for _, r := range runs {
		pts := runOf(r.n, r.size, r.trim)
		runBytes := 0
		for _, pt := range pts {
			runBytes += len(pt)
		}
		if got := fanWorkers(r.n, runBytes, 16); got != r.wantFanAtWide {
			t.Fatalf("%s: %d records, %d bytes fan to %d workers, want %d", r.name, r.n, runBytes, got, r.wantFanAtWide)
		}

		seq := newTestSealer(t)
		want := make([][]byte, r.n)
		for i, pt := range pts {
			ct, err := seq.Seal(pt)
			if err != nil {
				t.Fatalf("%s: Seal record %d: %v", r.name, i, err)
			}
			want[i] = ct
		}

		for _, workers := range []int{0, 1, 2, 4, 16} {
			par := newTestSealer(t) // fresh RNG: same nonce stream as seq
			outs := sealBuffers(pts, par.Overhead())
			if err := SealBatch(par, runOf(r.n, r.size, r.trim), outs, workers); err != nil {
				t.Fatalf("%s: SealBatch(workers=%d): %v", r.name, workers, err)
			}
			for i := range outs {
				if !bytes.Equal(outs[i], want[i]) {
					t.Fatalf("%s: workers=%d: record %d differs from sequential Seal", r.name, workers, i)
				}
			}

			opened := sealBuffers(pts, 0)
			if err := OpenBatch(par, outs, opened, workers); err != nil {
				t.Fatalf("%s: OpenBatch(workers=%d): %v", r.name, workers, err)
			}
			for i := range opened {
				if !bytes.Equal(opened[i], pts[i]) {
					t.Fatalf("%s: workers=%d: record %d did not round-trip", r.name, workers, i)
				}
			}
		}
	}
}

// TestSmallRunAllocatesNothing pins the inline branch: a run below the
// minShare floor is sealed and opened on the calling goroutine, with
// no goroutines, WaitGroup, error slice or closure to allocate, even
// when the caller offers four workers.
func TestSmallRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	s := newTestSealer(t)
	pts := runOf(12, 72, 0) // a constant-time memory path: 12 records of 8 + 64 B
	outs := sealBuffers(pts, s.Overhead())
	if avg := testing.AllocsPerRun(200, func() {
		if err := SealBatch(s, pts, outs, 4); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("SealBatch of a below-floor run allocates %.1f times, want 0", avg)
	}
	opened := sealBuffers(pts, 0)
	if avg := testing.AllocsPerRun(200, func() {
		if err := OpenBatch(s, outs, opened, 4); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("OpenBatch of a below-floor run allocates %.1f times, want 0", avg)
	}
}

func TestSealIntoOpenIntoRoundTrip(t *testing.T) {
	s := newTestSealer(t)
	pt := make([]byte, 512)
	fill(pt, 3)
	ct := make([]byte, len(pt)+s.Overhead())
	if err := s.SealInto(ct, pt); err != nil {
		t.Fatalf("SealInto: %v", err)
	}
	got := make([]byte, len(pt))
	if err := s.OpenInto(got, ct); err != nil {
		t.Fatalf("OpenInto: %v", err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("OpenInto did not recover the plaintext")
	}
}

func TestOpenBatchAuthFailure(t *testing.T) {
	s := newTestSealer(t)
	const n, size = 8, 128
	pts := make([][]byte, n)
	outs := make([][]byte, n)
	for i := range pts {
		pts[i] = make([]byte, size)
		fill(pts[i], byte(i))
		outs[i] = make([]byte, size+s.Overhead())
	}
	if err := SealBatch(s, pts, outs, 4); err != nil {
		t.Fatalf("SealBatch: %v", err)
	}
	outs[5][len(outs[5])-1] ^= 1 // tamper with one record's tag
	opened := make([][]byte, n)
	for i := range opened {
		opened[i] = make([]byte, size)
	}
	err := OpenBatch(s, outs, opened, 4)
	if err == nil {
		t.Fatal("OpenBatch accepted a tampered record")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("record 5")) {
		t.Fatalf("error does not attribute the tampered record: %v", err)
	}
}

func TestBatchLengthValidation(t *testing.T) {
	s := newTestSealer(t)
	pts := [][]byte{make([]byte, 64)}
	outs := [][]byte{make([]byte, 64)} // missing Overhead()
	if err := SealBatch(s, pts, outs, 1); err == nil {
		t.Fatal("SealBatch accepted a short output buffer")
	}
	if err := SealBatch(s, pts, make([][]byte, 2), 1); err == nil {
		t.Fatal("SealBatch accepted mismatched batch sizes")
	}
}

// TestSealAllocs is the zero-alloc regression gate for the hot path:
// sealing and opening into caller buffers allocates nothing per record
// on either path — the AES-GCM AEAD is built once per sealer and the
// nonce is drawn straight into the output's prefix.
func TestSealAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	s := newTestSealer(t)
	pt := make([]byte, 1024)
	fill(pt, 9)
	ct := make([]byte, len(pt)+s.Overhead())

	if avg := testing.AllocsPerRun(200, func() {
		if err := s.SealInto(ct, pt); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AESSealer.SealInto allocates %.1f times per record, want 0", avg)
	}

	got := make([]byte, len(pt))
	if err := s.SealInto(ct, pt); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := s.OpenInto(got, ct); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AESSealer.OpenInto allocates %.1f times per record, want 0", avg)
	}

	var null NullSealer
	if avg := testing.AllocsPerRun(200, func() {
		if err := null.SealInto(pt, pt); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("NullSealer.SealInto allocates %.1f times per record, want 0", avg)
	}
}

// TestBatchRace drives concurrent batches through one sealer instance
// with a multi-worker pool; under -race this covers the shared AEAD
// and the serial nonce handoff. Its 64 × 256 B runs hold 4×minShare
// plaintext bytes, so workers=4 really fans out to four goroutines
// rather than taking the inline branch.
func TestBatchRace(t *testing.T) {
	s := newTestSealer(t)
	const n, size, rounds = 64, 256, 20
	if got := fanWorkers(n, n*size, 4); got != 4 {
		t.Fatalf("a %d × %d B run fans to %d workers, want 4", n, size, got)
	}
	pts := make([][]byte, n)
	outs := make([][]byte, n)
	opened := make([][]byte, n)
	for i := range pts {
		pts[i] = make([]byte, size)
		fill(pts[i], byte(i))
		outs[i] = make([]byte, size+s.Overhead())
		opened[i] = make([]byte, size)
	}
	for r := 0; r < rounds; r++ {
		if err := SealBatch(s, pts, outs, 4); err != nil {
			t.Fatalf("round %d: SealBatch: %v", r, err)
		}
		if err := OpenBatch(s, outs, opened, 4); err != nil {
			t.Fatalf("round %d: OpenBatch: %v", r, err)
		}
		for i := range opened {
			if !bytes.Equal(opened[i], pts[i]) {
				t.Fatalf("round %d: record %d corrupted", r, i)
			}
		}
	}
}

// BenchmarkSealer is the sealer microbenchmark behind the CI
// regression gate: per-record seal throughput at representative block
// sizes, reported via b.SetBytes so the MB/s column is comparable
// across runs.
func BenchmarkSealer(b *testing.B) {
	for _, size := range []int{256, 1024, 4096} {
		s, err := NewAESSealer(testKey(), NewRNGFromString("sealer-bench"))
		if err != nil {
			b.Fatal(err)
		}
		pt := make([]byte, size)
		fill(pt, 1)
		ct := make([]byte, size+s.Overhead())
		b.Run(fmt.Sprintf("Seal/%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SealInto(ct, pt); err != nil {
					b.Fatal(err)
				}
			}
		})
		if err := s.SealInto(ct, pt); err != nil {
			b.Fatal(err)
		}
		out := make([]byte, size)
		b.Run(fmt.Sprintf("Open/%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.OpenInto(out, ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSealBatch measures the worker pool at a shuffle-quantum
// batch shape.
func BenchmarkSealBatch(b *testing.B) {
	const n, size = 64, 1024
	for _, workers := range []int{1, 2, 4} {
		s, err := NewAESSealer(testKey(), NewRNGFromString("sealer-bench"))
		if err != nil {
			b.Fatal(err)
		}
		pts := make([][]byte, n)
		outs := make([][]byte, n)
		for i := range pts {
			pts[i] = make([]byte, size)
			fill(pts[i], byte(i))
			outs[i] = make([]byte, size+s.Overhead())
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(n * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := SealBatch(s, pts, outs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSealRun is the sweep behind the minShare floor: every run
// shape H-ORAM's workloads seal and open (memory-tree paths and
// storage partitions at each benchmark workload's per-shard geometry;
// records are the 8-byte address plus the block), one sub-benchmark
// per candidate worker count, MB/s over plaintext bytes. Runs below
// the floor take the inline branch whatever workers says.
func BenchmarkSealRun(b *testing.B) {
	shapes := []struct {
		name    string
		n, size int
	}{
		{"ct-path", 12, 72},
		{"ct-partition", 23, 72},
		{"kv-path", 16, 1032},
		{"kv-partition", 64, 1032},
		{"rtt-path", 20, 1032},
		{"pipelined-partition", 91, 1032},
		{"rtt-partition", 128, 1032},
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 2} {
			s, err := NewAESSealer(testKey(), NewRNGFromString("seal-run-bench"))
			if err != nil {
				b.Fatal(err)
			}
			pts := runOf(sh.n, sh.size, 0)
			outs := sealBuffers(pts, s.Overhead())
			name := fmt.Sprintf("%s/%dx%d/workers=%d", sh.name, sh.n, sh.size, workers)
			b.Run("seal/"+name, func(b *testing.B) {
				b.SetBytes(int64(sh.n * sh.size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := SealBatch(s, pts, outs, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("open/"+name, func(b *testing.B) {
				b.SetBytes(int64(sh.n * sh.size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := OpenBatch(s, outs, pts, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ctrHMAC is the encrypt-then-MAC composition AESSealer used before
// AES-GCM — AES-CTR under a 16-byte IV, then HMAC-SHA256 over
// IV‖ciphertext, 48 bytes of overhead — kept only as BenchmarkCipher's
// reference point.
type ctrHMAC struct {
	block cipher.Block
	mac   hash.Hash
	sum   [sha256.Size]byte
}

func newCTRHMAC(master []byte) *ctrHMAC {
	prf, _ := NewPRF(master) // master is 32 bytes
	block, _ := aes.NewCipher(prf.Derive("enc", 32))
	return &ctrHMAC{block: block, mac: hmac.New(sha256.New, prf.Derive("mac", 32))}
}

func (c *ctrHMAC) seal(dst, iv, pt []byte) {
	body := dst[:copy(dst, iv)+len(pt)]
	cipher.NewCTR(c.block, iv).XORKeyStream(body[len(iv):], pt)
	c.mac.Reset()
	c.mac.Write(body)
	c.mac.Sum(body)
}

func (c *ctrHMAC) open(dst, sealed []byte) error {
	body := sealed[:len(sealed)-sha256.Size]
	c.mac.Reset()
	c.mac.Write(body)
	if !hmac.Equal(c.mac.Sum(c.sum[:0]), sealed[len(body):]) {
		return ErrAuth
	}
	cipher.NewCTR(c.block, body[:16]).XORKeyStream(dst, body[16:])
	return nil
}

// BenchmarkCipher compares the record ciphers side by side, one
// sub-benchmark per candidate and record size: each iteration seals
// one record into a caller buffer and opens it again, and MB/s counts
// plaintext bytes.
func BenchmarkCipher(b *testing.B) {
	gcm, err := NewAESSealer(testKey(), NewRNGFromString("cipher-bench"))
	if err != nil {
		b.Fatal(err)
	}
	ref := newCTRHMAC(testKey())
	iv := make([]byte, 16)
	candidates := []struct {
		name     string
		overhead int
		seal     func(dst, pt []byte) error
		open     func(dst, sealed []byte) error
	}{
		{"ctr-hmac", 16 + sha256.Size, func(dst, pt []byte) error { ref.seal(dst, iv, pt); return nil }, ref.open},
		{"gcm", gcm.Overhead(), gcm.SealInto, gcm.OpenInto},
	}
	for _, c := range candidates {
		for _, size := range []int{64, 256, 1024} {
			pt := make([]byte, size)
			fill(pt, 5)
			sealed, back := make([]byte, size+c.overhead), make([]byte, size)
			b.Run(fmt.Sprintf("%s/%d", c.name, size), func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := c.seal(sealed, pt); err != nil {
						b.Fatal(err)
					}
					if err := c.open(back, sealed); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
