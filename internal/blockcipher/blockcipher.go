// Package blockcipher provides the cryptographic primitives used by
// every ORAM scheme in this repository: an authenticated block sealer
// (AES-256-GCM), a PRF for deterministic pseudo-random
// derivations, and a seeded deterministic CSPRNG so whole experiments
// replay bit-for-bit.
//
// All ORAM contents stored on simulated memory or storage devices pass
// through a Sealer, so data integrity is verified end-to-end through
// real cryptography even though the devices themselves are simulated.
package blockcipher

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
)

// Errors returned by Sealer implementations.
var (
	// ErrAuth indicates ciphertext whose authentication tag does not
	// verify: the block was corrupted or tampered with.
	ErrAuth = errors.New("blockcipher: authentication failed")
	// ErrCiphertext indicates ciphertext too short to contain the
	// nonce and tag framing.
	ErrCiphertext = errors.New("blockcipher: malformed ciphertext")
)

// Sealer encrypts and authenticates fixed-size ORAM blocks. It is the
// one sealer contract: the allocating Seal/Open, the in-place forms
// the steady-state block path uses, and the batch forms that fan a run
// of records across workers. AESSealer and NullSealer implement all of
// it.
//
// Seal must be non-deterministic (fresh nonce per call) so that
// re-encrypting the same plaintext yields a different ciphertext;
// ORAM security requires that an adversary cannot link a block across
// shuffles by its ciphertext.
type Sealer interface {
	// Seal encrypts plaintext and returns nonce‖ciphertext‖tag.
	Seal(plaintext []byte) ([]byte, error)
	// Open verifies and decrypts a value produced by Seal.
	Open(sealed []byte) ([]byte, error)
	// Overhead returns the number of bytes Seal adds to a plaintext.
	Overhead() int
	// SealInto seals plaintext into dst, which must be exactly
	// len(plaintext)+Overhead() bytes. The sealed bytes are identical
	// to what Seal would have returned at the same point in the nonce
	// stream.
	SealInto(dst, plaintext []byte) error
	// OpenInto verifies sealed and decrypts it into dst, which must be
	// exactly len(sealed)-Overhead() bytes.
	OpenInto(dst, sealed []byte) error
	// SealBatch seals plaintexts[i] into outs[i] (each exactly
	// len(plaintexts[i])+Overhead() bytes) on the calling goroutine.
	// The nonce stream advances exactly as len(plaintexts) sequential
	// Seal calls would, so batch and serial sealing are byte-for-byte
	// interchangeable.
	//
	// workers is ignored: the engine's shards, each sealing on its
	// own goroutine, are the parallelism. On a 2-vCPU host one
	// goroutine sealed every production run shape (12 × 72 B to
	// 128 × 1032 B, BenchmarkSealRun) faster than two workers did, and
	// sealing on the shard's goroutine instead of a worker fan raised
	// kv_mixed's ops/s by 25 %.
	SealBatch(plaintexts, outs [][]byte, workers int) error
	// OpenBatch verifies and decrypts sealed[i] into outs[i] (each
	// exactly len(sealed[i])-Overhead() bytes) on the calling
	// goroutine. workers is ignored.
	OpenBatch(sealed, outs [][]byte, workers int) error
}

const (
	nonceSize = 16 // 8-byte counter ‖ 8 bytes of the sealer's RNG
	tagSize   = 16 // GCM authentication tag
)

// AESSealer is an AES-256-GCM Sealer with a 16-byte nonce. The nonce
// is the sealer's own counter followed by 8 bytes of its RNG: within
// one sealer the counter never repeats, and two sealers under one key
// stay apart only if their RNG streams differ. Under GCM that is a
// security property, not hygiene — one repeated (key, nonce) pair
// gives away the authentication key. A sealer whose records outlive
// the process must therefore draw from a NewBootRNG stream; a seeded
// NewRNG stream replays bit-for-bit, which suits in-process
// simulations only.
type AESSealer struct {
	aead    cipher.AEAD // read-only after construction; safe to share across workers
	rng     *RNG
	counter uint64
}

// NewAESSealer builds an AESSealer from a 32-byte master key, from
// which a PRF derives the AES-256 key. The rng provides nonce entropy;
// it must not be shared with code whose randomness must be independent
// of sealing activity.
func NewAESSealer(master []byte, rng *RNG) (*AESSealer, error) {
	if len(master) != 32 {
		return nil, fmt.Errorf("blockcipher: master key must be 32 bytes, got %d", len(master))
	}
	if rng == nil {
		return nil, errors.New("blockcipher: nil RNG")
	}
	prf, err := NewPRF(master)
	if err != nil {
		return nil, err
	}
	blk, err := aes.NewCipher(prf.Derive("enc", 32))
	if err != nil {
		return nil, fmt.Errorf("blockcipher: %w", err)
	}
	aead, err := cipher.NewGCMWithNonceSize(blk, nonceSize)
	if err != nil {
		return nil, fmt.Errorf("blockcipher: %w", err)
	}
	return &AESSealer{aead: aead, rng: rng}, nil
}

// Overhead implements Sealer.
func (s *AESSealer) Overhead() int { return nonceSize + tagSize }

// Seal implements Sealer.
func (s *AESSealer) Seal(plaintext []byte) ([]byte, error) {
	out := make([]byte, nonceSize+len(plaintext)+tagSize)
	return out, s.SealInto(out, plaintext)
}

// Open implements Sealer.
func (s *AESSealer) Open(sealed []byte) ([]byte, error) {
	pt := make([]byte, max(len(sealed)-nonceSize-tagSize, 0))
	if err := s.OpenInto(pt, sealed); err != nil {
		return nil, err
	}
	return pt, nil
}

// NullSealer passes plaintext through unchanged. It exists for
// performance-model-only runs where cryptographic cost should be
// excluded (the paper's theoretical analysis counts I/O bytes only);
// it must never be used where confidentiality matters.
type NullSealer struct{}

// Seal implements Sealer by copying the plaintext.
func (NullSealer) Seal(plaintext []byte) ([]byte, error) {
	out := make([]byte, len(plaintext))
	copy(out, plaintext)
	return out, nil
}

// Open implements Sealer by copying the ciphertext.
func (NullSealer) Open(sealed []byte) ([]byte, error) {
	out := make([]byte, len(sealed))
	copy(out, sealed)
	return out, nil
}

// Overhead implements Sealer.
func (NullSealer) Overhead() int { return 0 }

// PRF is a keyed pseudo-random function (HMAC-SHA256) used to derive
// subkeys and deterministic per-label pseudo-random bytes. It is safe
// for concurrent use.
type PRF struct {
	key []byte
	// states recycles keyed HMAC states for Uint64, the per-operation
	// hash of the okv layer, so a call allocates nothing.
	states sync.Pool
}

// prfState is one keyed HMAC state with the scratch a Uint64 call
// needs.
type prfState struct {
	mac hash.Hash
	msg []byte
	sum [sha256.Size]byte
}

// NewPRF returns a PRF keyed with key (any length ≥ 16 bytes).
func NewPRF(key []byte) (*PRF, error) {
	if len(key) < 16 {
		return nil, fmt.Errorf("blockcipher: PRF key must be at least 16 bytes, got %d", len(key))
	}
	k := make([]byte, len(key))
	copy(k, key)
	p := &PRF{key: k}
	p.states.New = func() any { return &prfState{mac: hmac.New(sha256.New, k)} }
	return p, nil
}

// Derive returns n pseudo-random bytes bound to label. Equal (key,
// label, n) always yields equal output.
func (p *PRF) Derive(label string, n int) []byte {
	out := make([]byte, 0, n)
	var ctr uint32
	for len(out) < n {
		h := hmac.New(sha256.New, p.key)
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		h.Write(cb[:])
		h.Write([]byte(label))
		out = append(out, h.Sum(nil)...)
		ctr++
	}
	return out[:n]
}

// Uint64 returns a pseudo-random uint64 bound to label‖suffix and
// index: the first 8 bytes of HMAC(key, label‖suffix‖index). Splitting
// one label between label and suffix does not change the output, so a
// caller hashing a fixed prefix and a per-call key passes both without
// building their concatenation.
func (p *PRF) Uint64(label string, suffix []byte, index uint64) uint64 {
	st := p.states.Get().(*prfState)
	st.mac.Reset()
	st.msg = append(append(st.msg[:0], label...), suffix...)
	st.msg = binary.BigEndian.AppendUint64(st.msg, index)
	st.mac.Write(st.msg)
	v := binary.BigEndian.Uint64(st.mac.Sum(st.sum[:0]))
	p.states.Put(st)
	return v
}

// RNG is a deterministic cryptographically strong pseudo-random number
// generator backed by an AES-CTR keystream. It is NOT safe for
// concurrent use; give each goroutine its own RNG (see Fork).
type RNG struct {
	stream cipher.Stream
	buf    [512]byte
	pos    int
}

// NewRNG returns an RNG seeded from the given seed bytes. Any seed
// length is accepted; it is stretched through SHA-256.
func NewRNG(seed []byte) *RNG {
	sum := sha256.Sum256(seed)
	blk, err := aes.NewCipher(sum[:])
	if err != nil {
		// aes.NewCipher only fails on bad key length; sum is 32 bytes.
		panic("blockcipher: impossible: " + err.Error())
	}
	iv := sha256.Sum256(append([]byte("rng-iv"), seed...))
	r := &RNG{stream: cipher.NewCTR(blk, iv[:16])}
	r.refill()
	return r
}

// NewBootRNG is NewRNG with 16 bytes of OS entropy appended to the
// seed, so no two calls yield the same stream — in this process or any
// earlier one — whatever the seed. A sealer whose key outlives the
// process (its records sit on disk, to be opened after a restart)
// draws its nonces from one: no persisted counter survives a crash
// before the first checkpoint or a wiped data directory, but fresh
// entropy does.
func NewBootRNG(seed []byte) *RNG {
	salted := make([]byte, len(seed)+16)
	copy(salted, seed)
	rand.Read(salted[len(seed):]) // never fails as of Go 1.24
	return NewRNG(salted)
}

// NewRNGFromString seeds an RNG from a string label, convenient for
// tests and benchmarks.
func NewRNGFromString(seed string) *RNG { return NewRNG([]byte(seed)) }

func (r *RNG) refill() {
	for i := range r.buf {
		r.buf[i] = 0
	}
	r.stream.XORKeyStream(r.buf[:], r.buf[:])
	r.pos = 0
}

// Read fills p with pseudo-random bytes; it never fails.
func (r *RNG) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if r.pos == len(r.buf) {
			r.refill()
		}
		c := copy(p, r.buf[r.pos:])
		r.pos += c
		p = p[c:]
	}
	return n, nil
}

// Uint64 returns a uniformly random uint64.
func (r *RNG) Uint64() uint64 {
	var b [8]byte
	r.Read(b[:])
	return binary.BigEndian.Uint64(b[:])
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
// Modulo bias is removed by rejection sampling.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("blockcipher: Intn argument must be positive")
	}
	max := uint64(n)
	// Largest multiple of n that fits in a uint64.
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Int63n returns a uniformly random int64 in [0, n). It panics if
// n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("blockcipher: Int63n argument must be positive")
	}
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int64(v % max)
		}
	}
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n) generated with
// the Fisher-Yates algorithm.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent RNG labelled by s. Independent forks let
// concurrent components draw randomness without sharing state while
// keeping the whole experiment a pure function of the root seed.
func (r *RNG) Fork(s string) *RNG {
	var seed [40]byte
	r.Read(seed[:8])
	sum := sha256.Sum256([]byte(s))
	copy(seed[8:], sum[:])
	return NewRNG(seed[:])
}
