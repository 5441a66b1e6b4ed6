// Zero-copy and batch sealing. The steady-state ORAM block path seals
// and opens one fixed-size record per device slot, and the historical
// Seal/Open contract allocated the output on every call — the dominant
// allocation churn of a cycle. Two optional capability interfaces fix
// that:
//
//   - InplaceSealer seals/opens into caller-provided buffers; the
//     AES-GCM path then allocates nothing per record;
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
	"encoding/binary"
	"fmt"
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

// SealInto implements InplaceSealer.
func (s *AESSealer) SealInto(dst, plaintext []byte) error {
	if len(dst) != nonceSize+len(plaintext)+tagSize {
		return fmt.Errorf("blockcipher: seal buffer %d bytes, want %d", len(dst), nonceSize+len(plaintext)+tagSize)
	}
	s.nextNonce((*[nonceSize]byte)(dst))
	s.aead.Seal(dst[:nonceSize], dst[:nonceSize], plaintext, nil)
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
	return s.open(dst, sealed)
}

// fan runs f(i) for i in [0, n), inline when workers <= 1 and across
// min(workers, n) goroutines otherwise. The first error wins;
// remaining items may or may not run after one.
func fan(n, workers int, f func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
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

// SealBatch implements BatchSealer. Nonces are drawn serially in index
// order into each output's prefix before the parallel phase, so the
// output is byte-for-byte what sequential Seal calls would produce
// regardless of workers.
func (s *AESSealer) SealBatch(plaintexts, outs [][]byte, workers int) error {
	if len(plaintexts) != len(outs) {
		return fmt.Errorf("blockcipher: %d plaintexts, %d outputs", len(plaintexts), len(outs))
	}
	for i := range plaintexts {
		if len(outs[i]) != len(plaintexts[i])+s.Overhead() {
			return fmt.Errorf("blockcipher: record %d: seal buffer %d bytes, want %d", i, len(outs[i]), len(plaintexts[i])+s.Overhead())
		}
	}
	for _, out := range outs {
		s.nextNonce((*[nonceSize]byte)(out))
	}
	// The AEAD is read-only, so the workers share it; each seals under
	// the nonce already drawn into its output's prefix.
	return fan(len(plaintexts), workers, func(i int) error {
		s.aead.Seal(outs[i][:nonceSize], outs[i][:nonceSize], plaintexts[i], nil)
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
	return fan(len(sealed), workers, func(i int) error {
		return s.open(outs[i], sealed[i])
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
