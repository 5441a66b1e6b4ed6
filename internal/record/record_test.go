package record_test

import (
	"bytes"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/record"
)

const testBlockSize = 48

// aesSealer returns a sealer whose nonce stream depends only on the
// call: two of them seal identically.
func aesSealer(t testing.TB) *blockcipher.AESSealer {
	t.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(11*i + 5)
	}
	s, err := blockcipher.NewAESSealer(key, blockcipher.NewRNGFromString("record-test"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSizes(t *testing.T) {
	for _, s := range []blockcipher.Sealer{aesSealer(t), blockcipher.NullSealer{}} {
		want := record.HeaderSize + testBlockSize + s.Overhead()
		if got := record.SlotSize(testBlockSize, s); got != want {
			t.Errorf("%T: SlotSize = %d, want %d", s, got, want)
		}
		c := record.New(s, testBlockSize)
		if c.SlotSize() != want || c.PtSize() != record.HeaderSize+testBlockSize {
			t.Errorf("%T: codec sizes (%d, %d), want (%d, %d)", s, c.SlotSize(), c.PtSize(), want, record.HeaderSize+testBlockSize)
		}
	}
}

func TestDummyPt(t *testing.T) {
	c := record.New(blockcipher.NullSealer{}, testBlockSize)
	addr, payload := c.Decode(c.DummyPt())
	if addr != record.DummyAddr {
		t.Errorf("dummy address = %d, want %d", addr, record.DummyAddr)
	}
	if !bytes.Equal(payload, make([]byte, testBlockSize)) {
		t.Errorf("dummy payload = %x, want all zero", payload)
	}
}

func TestEncodeZeroFillsDirtyBuffer(t *testing.T) {
	c := record.New(blockcipher.NullSealer{}, testBlockSize)
	for _, payload := range [][]byte{nil, {}, {1, 2, 3}, bytes.Repeat([]byte{9}, testBlockSize)} {
		pt := bytes.Repeat([]byte{0xff}, c.PtSize())
		c.Encode(pt, 0x0102030405060708, payload)
		if want := []byte{1, 2, 3, 4, 5, 6, 7, 8}; !bytes.Equal(pt[:record.HeaderSize], want) {
			t.Errorf("header = %x, want big-endian %x", pt[:record.HeaderSize], want)
		}
		addr, got := c.Decode(pt)
		want := append(bytes.Clone(payload), make([]byte, testBlockSize-len(payload))...)
		if addr != 0x0102030405060708 || !bytes.Equal(got, want) {
			t.Errorf("Encode(%x) decodes to (%#x, %x), want payload %x", payload, addr, got, want)
		}
	}
	pt := bytes.Repeat([]byte{0xff}, c.PtSize())
	record.PutAddr(pt, 7)
	if addr, payload := c.Decode(pt); addr != 7 || !bytes.Equal(payload, bytes.Repeat([]byte{0xff}, testBlockSize)) {
		t.Errorf("PutAddr touched the payload: (%d, %x)", addr, payload)
	}
}

// TestSealMatchesSequentialSeal is the codec's side of the nonce-order
// contract: SealRun and Seal emit the bytes a loop of Sealer.Seal
// calls would, so moving a scheme from Seal to the codec (as sqrtoram
// and partitionoram did) cannot move a byte on the device.
func TestSealMatchesSequentialSeal(t *testing.T) {
	const n = 9
	ref, c := aesSealer(t), record.New(aesSealer(t), testBlockSize)
	pts := record.Slab(n, c.PtSize())
	for i, pt := range pts {
		c.Encode(pt, int64(i)-1, bytes.Repeat([]byte{byte(i)}, i))
	}
	outs := record.Slab(n, c.SlotSize())
	if err := c.SealRun(pts[:n-1], outs[:n-1]); err != nil {
		t.Fatal(err)
	}
	last := bytes.Repeat([]byte{n - 1}, n-1)
	if err := c.Seal(outs[n-1], make([]byte, c.PtSize()), n-2, last); err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		want, err := ref.Seal(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(outs[i], want) {
			t.Fatalf("record %d differs from sequential Seal", i)
		}
	}
	back := record.Slab(n, c.PtSize())
	if err := c.OpenRun(back, outs); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if !bytes.Equal(back[i], pts[i]) {
			t.Fatalf("record %d did not round-trip", i)
		}
	}
}

// TestBlockPathAllocs pins the property horam's zero-alloc block path
// (one Encode, one OpenInto per storage load) relies on.
func TestBlockPathAllocs(t *testing.T) {
	c := record.New(blockcipher.NullSealer{}, testBlockSize)
	pt, sealed, out := make([]byte, c.PtSize()), make([]byte, c.SlotSize()), make([]byte, c.PtSize())
	payload := bytes.Repeat([]byte{3}, testBlockSize)
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Seal(sealed, pt, 42, payload); err != nil {
			t.Fatal(err)
		}
		if addr, _, err := c.OpenInto(out, sealed); err != nil || addr != 42 {
			t.Fatalf("OpenInto = (%d, %v)", addr, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Seal + OpenInto allocate %v times per record, want 0", allocs)
	}
}
