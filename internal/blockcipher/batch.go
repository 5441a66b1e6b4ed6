// Zero-copy and batch sealing. The steady-state ORAM block path seals
// and opens one fixed-size record per device slot, and the historical
// Seal/Open contract allocated the output (and an HMAC state) on every
// call — the dominant allocation churn of a cycle. Two optional
// capability interfaces fix that:
//
//   - InplaceSealer seals/opens into caller-provided buffers, with the
//     HMAC state drawn from an internal sync.Pool, so the per-record
//     cost drops to the AES-CTR stream construction;
//   - BatchSealer processes a whole run of records at once, fanning
//     the crypto across a bounded set of worker goroutines while
//     drawing the nonces serially in index order first — so the
//     sealed bytes are exactly what sequential Seal calls would have
//     produced, whatever the worker count.
//
// The package-level SealInto/OpenInto/SealBatch/OpenBatch helpers fall
// back to the plain Sealer contract for implementations (e.g. fault-
// injecting test sealers) that predate these interfaces.
package blockcipher

import (
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
)

// InplaceSealer is the optional zero-copy contract: sealing and
// opening into caller-provided buffers instead of allocating.
type InplaceSealer interface {
	// SealInto seals plaintext into dst, which must be exactly
	// len(plaintext)+Overhead() bytes. The sealed bytes are identical
	// to what Seal would have returned at the same point in the nonce
	// stream.
	SealInto(dst, plaintext []byte) error
	// OpenInto verifies sealed and decrypts it into dst, which must be
	// exactly len(sealed)-Overhead() bytes.
	OpenInto(dst, sealed []byte) error
}

// BatchSealer is the optional bulk contract: seal or open a run of
// records with a bounded worker fan-out. Outputs land at the matching
// index whatever the scheduling, and the nonce stream advances exactly
// as len(plaintexts) sequential Seal calls would, so batch and serial
// execution are byte-for-byte interchangeable.
type BatchSealer interface {
	// SealBatch seals plaintexts[i] into outs[i] (each exactly
	// len(plaintexts[i])+Overhead() bytes) using up to workers
	// goroutines. workers <= 1 runs inline on the calling goroutine.
	SealBatch(plaintexts, outs [][]byte, workers int) error
	// OpenBatch verifies and decrypts sealed[i] into outs[i] (each
	// exactly len(sealed[i])-Overhead() bytes) using up to workers
	// goroutines.
	OpenBatch(sealed, outs [][]byte, workers int) error
}

// SealInto seals via s's in-place path when it has one, and through
// Seal plus a copy otherwise. dst must be exactly
// len(plaintext)+s.Overhead() bytes.
func SealInto(s Sealer, dst, plaintext []byte) error {
	sealedBytes.Add(int64(len(plaintext)))
	if is, ok := s.(InplaceSealer); ok {
		return is.SealInto(dst, plaintext)
	}
	sealed, err := s.Seal(plaintext)
	if err != nil {
		return err
	}
	if len(sealed) != len(dst) {
		return fmt.Errorf("blockcipher: sealed %d bytes into a %d-byte buffer", len(sealed), len(dst))
	}
	copy(dst, sealed)
	return nil
}

// OpenInto opens via s's in-place path when it has one, and through
// Open plus a copy otherwise. dst must be exactly
// len(sealed)-s.Overhead() bytes.
func OpenInto(s Sealer, dst, sealed []byte) error {
	openedBytes.Add(int64(len(sealed)))
	if is, ok := s.(InplaceSealer); ok {
		return is.OpenInto(dst, sealed)
	}
	pt, err := s.Open(sealed)
	if err != nil {
		return err
	}
	if len(pt) != len(dst) {
		return fmt.Errorf("blockcipher: opened %d bytes into a %d-byte buffer", len(pt), len(dst))
	}
	copy(dst, pt)
	return nil
}

// SealBatch seals a run via s's batch path when it has one, falling
// back to sequential in-place seals (which count themselves) otherwise.
func SealBatch(s Sealer, plaintexts, outs [][]byte, workers int) error {
	if bs, ok := s.(BatchSealer); ok {
		countBytes(&sealedBytes, plaintexts)
		return bs.SealBatch(plaintexts, outs, workers)
	}
	if len(plaintexts) != len(outs) {
		return fmt.Errorf("blockcipher: %d plaintexts, %d outputs", len(plaintexts), len(outs))
	}
	for i := range plaintexts {
		if err := SealInto(s, outs[i], plaintexts[i]); err != nil {
			return fmt.Errorf("blockcipher: record %d: %w", i, err)
		}
	}
	return nil
}

// OpenBatch opens a run via s's batch path when it has one, falling
// back to sequential in-place opens (which count themselves) otherwise.
func OpenBatch(s Sealer, sealed, outs [][]byte, workers int) error {
	if bs, ok := s.(BatchSealer); ok {
		countBytes(&openedBytes, sealed)
		return bs.OpenBatch(sealed, outs, workers)
	}
	if len(sealed) != len(outs) {
		return fmt.Errorf("blockcipher: %d records, %d outputs", len(sealed), len(outs))
	}
	for i := range sealed {
		if err := OpenInto(s, outs[i], sealed[i]); err != nil {
			return fmt.Errorf("blockcipher: record %d: %w", i, err)
		}
	}
	return nil
}

// sealScratch is the reusable per-goroutine state of one seal/open:
// the keyed HMAC instance, reset instead of reconstructed per record,
// and the tag buffer (kept here because passing a stack array through
// the hash.Hash interface makes it escape).
type sealScratch struct {
	h   hash.Hash
	sum [tagSize]byte
}

func (s *AESSealer) getScratch() *sealScratch {
	if sc, ok := s.scratch.Get().(*sealScratch); ok {
		return sc
	}
	return &sealScratch{h: hmac.New(sha256.New, s.mac)}
}

func (s *AESSealer) putScratch(sc *sealScratch) { s.scratch.Put(sc) }

// nextNonce draws the next nonce from the sealer's deterministic
// counter + PRNG stream. Serial by contract: batch sealing draws all
// nonces in index order before any crypto runs, so the stream is
// identical to sequential sealing.
func (s *AESSealer) nextNonce(nonce *[nonceSize]byte) {
	s.counter++
	binary.BigEndian.PutUint64(nonce[:8], s.counter)
	binary.BigEndian.PutUint64(nonce[8:], s.rng.Uint64())
}

// sealWithNonce is the pure crypto of one seal: safe for concurrent
// use across distinct scratches (the AES block and MAC key are
// read-only).
func (s *AESSealer) sealWithNonce(sc *sealScratch, dst []byte, nonce *[nonceSize]byte, plaintext []byte) {
	copy(dst[:nonceSize], nonce[:])
	stream := cipher.NewCTR(s.block, dst[:nonceSize])
	stream.XORKeyStream(dst[nonceSize:nonceSize+len(plaintext)], plaintext)
	sc.h.Reset()
	sc.h.Write(dst[:nonceSize+len(plaintext)])
	sc.h.Sum(dst[nonceSize+len(plaintext) : nonceSize+len(plaintext)])
}

// openWithScratch is the pure crypto of one open.
func (s *AESSealer) openWithScratch(sc *sealScratch, dst, sealed []byte) error {
	body := sealed[:len(sealed)-tagSize]
	tag := sealed[len(sealed)-tagSize:]
	sc.h.Reset()
	sc.h.Write(body)
	sc.h.Sum(sc.sum[:0])
	if !hmac.Equal(sc.sum[:], tag) {
		return ErrAuth
	}
	stream := cipher.NewCTR(s.block, body[:nonceSize])
	stream.XORKeyStream(dst, body[nonceSize:])
	return nil
}

// SealInto implements InplaceSealer.
func (s *AESSealer) SealInto(dst, plaintext []byte) error {
	if len(dst) != nonceSize+len(plaintext)+tagSize {
		return fmt.Errorf("blockcipher: seal buffer %d bytes, want %d", len(dst), nonceSize+len(plaintext)+tagSize)
	}
	var nonce [nonceSize]byte
	s.nextNonce(&nonce)
	sc := s.getScratch()
	s.sealWithNonce(sc, dst, &nonce, plaintext)
	s.putScratch(sc)
	return nil
}

// OpenInto implements InplaceSealer.
func (s *AESSealer) OpenInto(dst, sealed []byte) error {
	if len(sealed) < nonceSize+tagSize {
		return ErrCiphertext
	}
	if len(dst) != len(sealed)-nonceSize-tagSize {
		return fmt.Errorf("blockcipher: open buffer %d bytes, want %d", len(dst), len(sealed)-nonceSize-tagSize)
	}
	sc := s.getScratch()
	err := s.openWithScratch(sc, dst, sealed)
	s.putScratch(sc)
	return err
}

// fan runs f(scratch, i) for i in [0, n), inline when workers <= 1 and
// across min(workers, n) goroutines otherwise. The first error wins;
// remaining items may or may not run after one.
func (s *AESSealer) fan(n, workers int, f func(sc *sealScratch, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := s.getScratch()
		defer s.putScratch(sc)
		for i := 0; i < n; i++ {
			if err := f(sc, i); err != nil {
				return fmt.Errorf("blockcipher: record %d: %w", i, err)
			}
		}
		return nil
	}
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := s.getScratch()
			defer s.putScratch(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(sc, i); err != nil {
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

// SealBatch implements BatchSealer. Nonces are drawn serially in index
// order before the parallel phase, so the output is byte-for-byte what
// sequential Seal calls would produce regardless of workers.
func (s *AESSealer) SealBatch(plaintexts, outs [][]byte, workers int) error {
	if len(plaintexts) != len(outs) {
		return fmt.Errorf("blockcipher: %d plaintexts, %d outputs", len(plaintexts), len(outs))
	}
	for i := range plaintexts {
		if len(outs[i]) != len(plaintexts[i])+s.Overhead() {
			return fmt.Errorf("blockcipher: record %d: seal buffer %d bytes, want %d", i, len(outs[i]), len(plaintexts[i])+s.Overhead())
		}
	}
	nonces := make([][nonceSize]byte, len(plaintexts))
	for i := range nonces {
		s.nextNonce(&nonces[i])
	}
	return s.fan(len(plaintexts), workers, func(sc *sealScratch, i int) error {
		s.sealWithNonce(sc, outs[i], &nonces[i], plaintexts[i])
		return nil
	})
}

// OpenBatch implements BatchSealer.
func (s *AESSealer) OpenBatch(sealed, outs [][]byte, workers int) error {
	if len(sealed) != len(outs) {
		return fmt.Errorf("blockcipher: %d records, %d outputs", len(sealed), len(outs))
	}
	for i := range sealed {
		if len(sealed[i]) < nonceSize+tagSize {
			return fmt.Errorf("blockcipher: record %d: %w", i, ErrCiphertext)
		}
		if len(outs[i]) != len(sealed[i])-s.Overhead() {
			return fmt.Errorf("blockcipher: record %d: open buffer %d bytes, want %d", i, len(outs[i]), len(sealed[i])-s.Overhead())
		}
	}
	return s.fan(len(sealed), workers, func(sc *sealScratch, i int) error {
		return s.openWithScratch(sc, outs[i], sealed[i])
	})
}

// SealInto implements InplaceSealer by copying (no overhead).
func (NullSealer) SealInto(dst, plaintext []byte) error {
	if len(dst) != len(plaintext) {
		return fmt.Errorf("blockcipher: seal buffer %d bytes, want %d", len(dst), len(plaintext))
	}
	copy(dst, plaintext)
	return nil
}

// OpenInto implements InplaceSealer by copying.
func (NullSealer) OpenInto(dst, sealed []byte) error {
	if len(dst) != len(sealed) {
		return fmt.Errorf("blockcipher: open buffer %d bytes, want %d", len(dst), len(sealed))
	}
	copy(dst, sealed)
	return nil
}

// SealBatch implements BatchSealer; with no nonce stream to order and
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

// OpenBatch implements BatchSealer.
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

// Compile-time capability conformance.
var (
	_ InplaceSealer = (*AESSealer)(nil)
	_ BatchSealer   = (*AESSealer)(nil)
	_ InplaceSealer = NullSealer{}
	_ BatchSealer   = NullSealer{}
)
