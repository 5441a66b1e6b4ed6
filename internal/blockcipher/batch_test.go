package blockcipher

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"
	"testing"
)

// fill writes a deterministic pattern so records are distinguishable.
func fill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i*13)
	}
}

// runShapes are the run shapes H-ORAM's benchmark workloads seal and
// open: memory-tree paths and storage partitions at each workload's
// per-shard geometry, records being the 8-byte address plus the block.
var runShapes = []struct {
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

// runOf builds n deterministic plaintexts of size bytes each.
func runOf(n, size int) [][]byte {
	pts := make([][]byte, n)
	for i := range pts {
		pts[i] = make([]byte, size)
		fill(pts[i], byte(i))
	}
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

// TestBatchMatchesSequential is the determinism contract of batch
// sealing: for the same RNG state, SealBatch must produce byte-for-byte
// the sealed records a loop of Seal calls would, whatever workers
// says. The device-trace equality tests upstack depend on this. The
// runs are a constant-time memory path, a 1 KiB-record memory path and
// the largest storage partition.
func TestBatchMatchesSequential(t *testing.T) {
	runs := []struct{ n, size int }{{12, 72}, {20, 1032}, {128, 1032}}
	for _, r := range runs {
		pts := runOf(r.n, r.size)
		seq := newTestSealer(t)
		want := make([][]byte, r.n)
		for i, pt := range pts {
			ct, err := seq.Seal(pt)
			if err != nil {
				t.Fatalf("%d×%d: Seal record %d: %v", r.n, r.size, i, err)
			}
			want[i] = ct
		}

		for _, workers := range []int{0, 1, 2, 4, 16} {
			batch := newTestSealer(t) // fresh RNG: same nonce stream as seq
			outs := sealBuffers(pts, batch.Overhead())
			if err := SealBatch(batch, runOf(r.n, r.size), outs, workers); err != nil {
				t.Fatalf("%d×%d: SealBatch(workers=%d): %v", r.n, r.size, workers, err)
			}
			for i := range outs {
				if !bytes.Equal(outs[i], want[i]) {
					t.Fatalf("%d×%d: workers=%d: record %d differs from sequential Seal", r.n, r.size, workers, i)
				}
			}

			opened := sealBuffers(pts, 0)
			if err := OpenBatch(batch, outs, opened, workers); err != nil {
				t.Fatalf("%d×%d: OpenBatch(workers=%d): %v", r.n, r.size, workers, err)
			}
			for i := range opened {
				if !bytes.Equal(opened[i], pts[i]) {
					t.Fatalf("%d×%d: workers=%d: record %d did not round-trip", r.n, r.size, workers, i)
				}
			}
		}
	}
}

// TestSmallRunAllocatesNothing pins that a run is sealed and opened on
// the calling goroutine, with no goroutine, WaitGroup, error slice or
// closure to allocate, even when the caller offers four workers: both
// for a constant-time memory path and for the largest partition, which
// a worker pool would split.
func TestSmallRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, r := range []struct{ n, size int }{{12, 72}, {128, 1032}} {
		s := newTestSealer(t)
		pts := runOf(r.n, r.size)
		outs := sealBuffers(pts, s.Overhead())
		if avg := testing.AllocsPerRun(100, func() {
			if err := SealBatch(s, pts, outs, 4); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("SealBatch of a %d × %d B run allocates %.1f times, want 0", r.n, r.size, avg)
		}
		opened := sealBuffers(pts, 0)
		if avg := testing.AllocsPerRun(100, func() {
			if err := OpenBatch(s, outs, opened, 4); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("OpenBatch of a %d × %d B run allocates %.1f times, want 0", r.n, r.size, avg)
		}
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

// TestBatchRace covers the concurrency batch sealing still meets,
// under -race: the engine's shards each seal on their own goroutine
// with their own sealer, and opening reads only the shared AEAD, so
// one sealer may open from many goroutines at once.
func TestBatchRace(t *testing.T) {
	const goroutines, n, size, rounds = 4, 64, 256, 20
	shared := newTestSealer(t)
	pts := runOf(n, size)
	sealed := sealBuffers(pts, shared.Overhead())
	if err := SealBatch(shared, pts, sealed, 4); err != nil {
		t.Fatalf("SealBatch: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func() { // OpenBatch on the shared sealer
			defer wg.Done()
			opened := sealBuffers(pts, 0)
			for r := 0; r < rounds; r++ {
				if err := OpenBatch(shared, sealed, opened, 4); err != nil {
					errs <- fmt.Errorf("round %d: OpenBatch: %w", r, err)
					return
				}
				for i := range opened {
					if !bytes.Equal(opened[i], pts[i]) {
						errs <- fmt.Errorf("round %d: record %d corrupted", r, i)
						return
					}
				}
			}
		}()
		go func(g int) { // SealBatch on this goroutine's own sealer
			defer wg.Done()
			own, err := NewAESSealer(testKey(), NewRNGFromString(fmt.Sprintf("race-%d", g)))
			if err != nil {
				errs <- err
				return
			}
			outs := sealBuffers(pts, own.Overhead())
			opened := sealBuffers(pts, 0)
			for r := 0; r < rounds; r++ {
				if err := SealBatch(own, pts, outs, 4); err != nil {
					errs <- fmt.Errorf("sealer %d round %d: SealBatch: %w", g, r, err)
					return
				}
				if err := OpenBatch(own, outs, opened, 4); err != nil {
					errs <- fmt.Errorf("sealer %d round %d: OpenBatch: %w", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
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

// BenchmarkSealBatch times a shuffle-quantum run (64 × 1 KiB). The
// worker counts name the sealer gate's baseline cells; a run is sealed
// on the calling goroutine whatever the count.
func BenchmarkSealBatch(b *testing.B) {
	const n, size = 64, 1024
	for _, workers := range []int{1, 2, 4} {
		s, err := NewAESSealer(testKey(), NewRNGFromString("sealer-bench"))
		if err != nil {
			b.Fatal(err)
		}
		pts := runOf(n, size)
		outs := sealBuffers(pts, s.Overhead())
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

// BenchmarkSealRun seals and then opens every run shape in runShapes,
// one sub-benchmark per shape; MB/s counts the plaintext bytes of both
// directions.
func BenchmarkSealRun(b *testing.B) {
	for _, sh := range runShapes {
		s, err := NewAESSealer(testKey(), NewRNGFromString("seal-run-bench"))
		if err != nil {
			b.Fatal(err)
		}
		pts := runOf(sh.n, sh.size)
		outs := sealBuffers(pts, s.Overhead())
		b.Run(fmt.Sprintf("%s/%dx%d", sh.name, sh.n, sh.size), func(b *testing.B) {
			b.SetBytes(int64(2 * sh.n * sh.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := SealBatch(s, pts, outs, 1); err != nil {
					b.Fatal(err)
				}
				if err := OpenBatch(s, outs, pts, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
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
