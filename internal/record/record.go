// Package record is the one definition of the sealed record every
// scheme in this repository puts on the untrusted bus — an H-ORAM
// storage-partition slot (§4.3), a memory-tree bucket slot (§4.1), and
// every slot of the Path, square-root and partition ORAM baselines
// (§5):
//
//	8-byte big-endian address ‖ BlockSize payload ‖ sealer overhead
//
// with address −1 marking a dummy. The layout, the slot sizing, the
// seal/open hot path (in place per record, batched per run with the
// serial nonce order preserved, so the sealed bytes are identical at
// any worker count) and the worker-pool bound live here and nowhere
// else; internal/record/golden_test.go pins the resulting device bytes.
package record

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"repro/internal/blockcipher"
)

// HeaderSize is the plaintext header of a record: the block address.
const HeaderSize = 8

// DummyAddr is the address of a record holding no real block.
const DummyAddr = int64(-1)

// SlotSize is the sealed on-device size of one record.
func SlotSize(blockSize int, sealer blockcipher.Sealer) int {
	return HeaderSize + blockSize + sealer.Overhead()
}

// Codec seals and opens the records of one ORAM instance. It holds no
// per-call state, so the steady state allocates nothing; callers own
// the buffers (see Slab).
type Codec struct {
	sealer   blockcipher.Sealer
	workers  int // seal/open fan-out of SealRun and OpenRun
	ptSize   int
	slotSize int
	dummyPt  []byte
}

// New builds the codec for blockSize-byte payloads under sealer. The
// worker pool is GOMAXPROCS capped at 8 (sealing a partition saturates
// memory bandwidth long before it scales past that); GOMAXPROCS is the
// way to bound it. The pool is an upper bound: the sealer gives each
// worker at least 4 KiB of record plaintext, so a run under 8 KiB, such
// as block_ct's 12 × 72 B memory paths and 23 × 72 B partitions, is
// sealed on the calling goroutine. Run length and record size are
// public geometry, so the worker count reveals nothing the bus does
// not. On a 2-vCPU host the hand-off cost more than the crypto of such
// a path (BenchmarkSealRun: 168 MB/s on two workers, 312 inline), and
// inlining it raised block_ct's ops/s by 19 %.
func New(sealer blockcipher.Sealer, blockSize int) *Codec {
	ptSize := HeaderSize + blockSize
	c := &Codec{
		sealer:   sealer,
		workers:  min(runtime.GOMAXPROCS(0), 8),
		ptSize:   ptSize,
		slotSize: SlotSize(blockSize, sealer),
		dummyPt:  make([]byte, ptSize),
	}
	c.Encode(c.dummyPt, DummyAddr, nil)
	return c
}

// PtSize is the plaintext record size, HeaderSize + BlockSize.
func (c *Codec) PtSize() int { return c.ptSize }

// SlotSize is the sealed record size.
func (c *Codec) SlotSize() int { return c.slotSize }

// DummyPt is the shared plaintext of a dummy record. Read-only.
func (c *Codec) DummyPt() []byte { return c.dummyPt }

// PutAddr overwrites the address header of the record plaintext pt.
//
//horam:constant-time
//horam:secret addr
func PutAddr(pt []byte, addr int64) {
	binary.BigEndian.PutUint64(pt[:HeaderSize], uint64(addr))
}

// Encode lays out one record plaintext into dst (PtSize bytes): the
// address header, then the payload, zero-filled when the payload is
// short or nil (dummies and never-written blocks).
//
//horam:constant-time
//horam:secret addr payload
func (c *Codec) Encode(dst []byte, addr int64, payload []byte) {
	PutAddr(dst, addr)
	n := copy(dst[HeaderSize:], payload)
	clear(dst[HeaderSize+n:])
}

// Decode splits a record plaintext into its address and the payload
// view aliasing pt.
//
//horam:constant-time
//horam:secret pt
func (c *Codec) Decode(pt []byte) (addr int64, payload []byte) {
	return int64(binary.BigEndian.Uint64(pt[:HeaderSize])), pt[HeaderSize:]
}

// Seal encodes one record into the PtSize scratch pt and seals it into
// the SlotSize buffer dst; the bytes are what Sealer.Seal would return
// at the same point in the nonce stream.
func (c *Codec) Seal(dst, pt []byte, addr int64, payload []byte) error {
	c.Encode(pt, addr, payload)
	return blockcipher.SealInto(c.sealer, dst, pt)
}

// OpenInto opens one sealed record into the PtSize buffer dst and
// returns the address and the payload view aliasing dst.
func (c *Codec) OpenInto(dst, sealed []byte) (addr int64, payload []byte, err error) {
	if err := blockcipher.OpenInto(c.sealer, dst, sealed); err != nil {
		return 0, nil, err
	}
	if len(dst) != c.ptSize {
		return 0, nil, fmt.Errorf("record: plaintext is %d bytes, want %d", len(dst), c.ptSize)
	}
	addr, payload = c.Decode(dst)
	return addr, payload, nil
}

// SealRun batch-seals pts[i] into outs[i] across the worker pool, in
// the nonce order of a serial loop over i.
func (c *Codec) SealRun(pts, outs [][]byte) error {
	return blockcipher.SealBatch(c.sealer, pts, outs, c.workers)
}

// OpenRun batch-opens sealed[i] into pts[i] across the worker pool.
func (c *Codec) OpenRun(pts, sealed [][]byte) error {
	return blockcipher.OpenBatch(c.sealer, sealed, pts, c.workers)
}

// Slab carves one n×size backing array into n fixed-size views — the
// scratch behind every run in the hot path, allocated once and reused.
func Slab(n, size int) [][]byte {
	backing := make([]byte, n*size)
	views := make([][]byte, n)
	for i := range views {
		views[i] = backing[i*size : (i+1)*size]
	}
	return views
}
