// Zero-copy and batch sealing. The steady-state ORAM block path seals
// and opens one fixed-size record per device slot; allocating the
// output on every call was the dominant allocation churn of a cycle.
// Every Sealer therefore seals and opens into caller-provided buffers
// (AES-GCM then allocates nothing per record) and takes whole runs of
// records at once, drawing a run's nonces serially in index order
// before its crypto, so the sealed bytes are exactly what sequential
// Seal calls would have produced. A run is sealed on the calling
// goroutine: the engine's shards, each on its own scheduler goroutine,
// are where the parallelism comes from.
//
// The package-level SealInto/OpenInto/SealBatch/OpenBatch helpers count
// their records' bytes into Throughput and forward to the sealer.
package blockcipher

import (
	"encoding/binary"
	"fmt"
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
// workers is ignored (see Sealer.SealBatch).
func SealBatch(s Sealer, plaintexts, outs [][]byte, workers int) error {
	countBytes(&sealedBytes, plaintexts)
	return s.SealBatch(plaintexts, outs, workers)
}

// OpenBatch counts the run's sealed bytes and opens it through s.
// workers is ignored.
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

// SealBatch implements Sealer. Nonces are drawn serially in index
// order into each output's prefix, then each record is sealed under
// its nonce in index order on the calling goroutine, so the output is
// byte-for-byte what sequential Seal calls would produce. workers is
// ignored.
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
	for i, pt := range plaintexts {
		s.aead.Seal(outs[i][:nonceSize], outs[i][:nonceSize], pt, nil)
	}
	return nil
}

// OpenBatch implements Sealer: every record's length is checked before
// any is opened, then each is opened in index order on the calling
// goroutine. workers is ignored.
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

// SealBatch implements Sealer by copying each record in turn; workers
// is ignored.
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
