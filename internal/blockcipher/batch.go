// Zero-copy and batch sealing. The steady-state ORAM block path seals
// and opens one fixed-size record per device slot; allocating the
// output on every call was the dominant allocation churn of a cycle.
// Every Sealer therefore seals and opens into caller-provided buffers
// (AES-GCM then allocates nothing per record) and processes whole runs
// of records at once, fanning the crypto of a run large enough to pay
// for it (minShare) across a bounded set of worker goroutines while
// drawing the nonces serially in index order first — so the sealed
// bytes are exactly what sequential Seal calls would have produced,
// whatever the worker count.
//
// The package-level SealInto/OpenInto/SealBatch/OpenBatch helpers count
// their records' bytes into Throughput and forward to the sealer.
package blockcipher

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// SealInto counts plaintext's bytes and seals it into dst through s.
func SealInto(s Sealer, dst, plaintext []byte) error {
	sealedBytes.Add(int64(len(plaintext)))
	return s.SealInto(dst, plaintext)
}

// OpenInto counts sealed's bytes and opens it into dst through s.
func OpenInto(s Sealer, dst, sealed []byte) error {
	openedBytes.Add(int64(len(sealed)))
	return s.OpenInto(dst, sealed)
}

// SealBatch counts the run's plaintext bytes and seals it through s.
func SealBatch(s Sealer, plaintexts, outs [][]byte, workers int) error {
	countBytes(&sealedBytes, plaintexts)
	return s.SealBatch(plaintexts, outs, workers)
}

// OpenBatch counts the run's sealed bytes and opens it through s.
func OpenBatch(s Sealer, sealed, outs [][]byte, workers int) error {
	countBytes(&openedBytes, sealed)
	return s.OpenBatch(sealed, outs, workers)
}

// nextNonce draws the next nonce from the sealer's deterministic
// counter + PRNG stream. Serial by contract: batch sealing draws all
// nonces in index order before any crypto runs, so the stream is
// identical to sequential sealing.
func (s *AESSealer) nextNonce(nonce *[nonceSize]byte) {
	s.counter++
	binary.BigEndian.PutUint64(nonce[:8], s.counter)
	binary.BigEndian.PutUint64(nonce[8:], s.rng.Uint64())
}

// open is the pure crypto of one open; any GCM failure is ErrAuth.
func (s *AESSealer) open(dst, sealed []byte) error {
	if _, err := s.aead.Open(dst[:0], sealed[:nonceSize], sealed[nonceSize:], nil); err != nil {
		return ErrAuth
	}
	return nil
}

// SealInto implements Sealer.
func (s *AESSealer) SealInto(dst, plaintext []byte) error {
	if len(dst) != nonceSize+len(plaintext)+tagSize {
		return fmt.Errorf("blockcipher: seal buffer %d bytes, want %d", len(dst), nonceSize+len(plaintext)+tagSize)
	}
	s.nextNonce((*[nonceSize]byte)(dst))
	s.aead.Seal(dst[:nonceSize], dst[:nonceSize], plaintext, nil)
	return nil
}

// OpenInto implements Sealer.
func (s *AESSealer) OpenInto(dst, sealed []byte) error {
	if len(sealed) < nonceSize+tagSize {
		return ErrCiphertext
	}
	if len(dst) != len(sealed)-nonceSize-tagSize {
		return fmt.Errorf("blockcipher: open buffer %d bytes, want %d", len(dst), len(sealed)-nonceSize-tagSize)
	}
	return s.open(dst, sealed)
}

// minShare is the work floor of the batch fan-out: the plaintext
// record bytes each worker must get before a run is split. SealBatch
// and OpenBatch use at most runBytes/minShare workers, so a run under
// 2×minShare stays on the calling goroutine. The decision reads only
// the run length and the record size, both public geometry, so it
// changes no touch sequence. 4 KiB keeps H-ORAM's constant-time memory
// paths (12 × 72 B) inline, where a hand-off to a second goroutine
// costs more than the crypto, and still splits every 1 KiB-record
// run the benchmark workloads make (≥ 16 × 1032 B).
const minShare = 4 << 10

// fanWorkers is how many goroutines a run of n records holding
// runBytes plaintext bytes gets: at most workers, one per record, and
// one per minShare bytes.
func fanWorkers(n, runBytes, workers int) int {
	return min(workers, n, runBytes/minShare)
}

// fan runs f(i) for i in [0, n) across workers (≥ 2) goroutines. The
// first error wins; remaining items may or may not run after one.
func fan(n, workers int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					errs[w] = fmt.Errorf("blockcipher: record %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SealBatch implements Sealer. Nonces are drawn serially in index
// order into each output's prefix before any crypto runs, so the
// output is byte-for-byte what sequential Seal calls would produce
// regardless of workers. A run below the minShare floor is sealed
// inline.
func (s *AESSealer) SealBatch(plaintexts, outs [][]byte, workers int) error {
	if len(plaintexts) != len(outs) {
		return fmt.Errorf("blockcipher: %d plaintexts, %d outputs", len(plaintexts), len(outs))
	}
	runBytes := 0
	for i := range plaintexts {
		if len(outs[i]) != len(plaintexts[i])+s.Overhead() {
			return fmt.Errorf("blockcipher: record %d: seal buffer %d bytes, want %d", i, len(outs[i]), len(plaintexts[i])+s.Overhead())
		}
		runBytes += len(plaintexts[i])
	}
	for _, out := range outs {
		s.nextNonce((*[nonceSize]byte)(out))
	}
	if w := fanWorkers(len(plaintexts), runBytes, workers); w > 1 {
		// The AEAD is read-only, so the workers share it; each seals
		// under the nonce already drawn into its output's prefix.
		return fan(len(plaintexts), w, func(i int) error {
			s.aead.Seal(outs[i][:nonceSize], outs[i][:nonceSize], plaintexts[i], nil)
			return nil
		})
	}
	for i, pt := range plaintexts {
		s.aead.Seal(outs[i][:nonceSize], outs[i][:nonceSize], pt, nil)
	}
	return nil
}

// OpenBatch implements Sealer. The run's size against the minShare
// floor is counted in plaintext bytes, as SealBatch counts it, so a
// run is opened on as many workers as it was sealed on.
func (s *AESSealer) OpenBatch(sealed, outs [][]byte, workers int) error {
	if len(sealed) != len(outs) {
		return fmt.Errorf("blockcipher: %d records, %d outputs", len(sealed), len(outs))
	}
	runBytes := 0
	for i := range sealed {
		if len(sealed[i]) < nonceSize+tagSize {
			return fmt.Errorf("blockcipher: record %d: %w", i, ErrCiphertext)
		}
		if len(outs[i]) != len(sealed[i])-s.Overhead() {
			return fmt.Errorf("blockcipher: record %d: open buffer %d bytes, want %d", i, len(outs[i]), len(sealed[i])-s.Overhead())
		}
		runBytes += len(outs[i])
	}
	if w := fanWorkers(len(sealed), runBytes, workers); w > 1 {
		return fan(len(sealed), w, func(i int) error {
			return s.open(outs[i], sealed[i])
		})
	}
	for i := range sealed {
		if err := s.open(outs[i], sealed[i]); err != nil {
			return fmt.Errorf("blockcipher: record %d: %w", i, err)
		}
	}
	return nil
}

// SealInto implements Sealer by copying (no overhead).
func (NullSealer) SealInto(dst, plaintext []byte) error {
	if len(dst) != len(plaintext) {
		return fmt.Errorf("blockcipher: seal buffer %d bytes, want %d", len(dst), len(plaintext))
	}
	copy(dst, plaintext)
	return nil
}

// OpenInto implements Sealer by copying.
func (NullSealer) OpenInto(dst, sealed []byte) error {
	if len(dst) != len(sealed) {
		return fmt.Errorf("blockcipher: open buffer %d bytes, want %d", len(dst), len(sealed))
	}
	copy(dst, sealed)
	return nil
}

// SealBatch implements Sealer; with no nonce stream to order and
// no crypto to amortise, it copies inline whatever the worker count.
func (n NullSealer) SealBatch(plaintexts, outs [][]byte, workers int) error {
	if len(plaintexts) != len(outs) {
		return fmt.Errorf("blockcipher: %d plaintexts, %d outputs", len(plaintexts), len(outs))
	}
	for i := range plaintexts {
		if err := n.SealInto(outs[i], plaintexts[i]); err != nil {
			return fmt.Errorf("blockcipher: record %d: %w", i, err)
		}
	}
	return nil
}

// OpenBatch implements Sealer.
func (n NullSealer) OpenBatch(sealed, outs [][]byte, workers int) error {
	if len(sealed) != len(outs) {
		return fmt.Errorf("blockcipher: %d records, %d outputs", len(sealed), len(outs))
	}
	for i := range sealed {
		if err := n.OpenInto(outs[i], sealed[i]); err != nil {
			return fmt.Errorf("blockcipher: record %d: %w", i, err)
		}
	}
	return nil
}
