package record_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/record"
)

// The genuine slot: the first seal of a fresh aesSealer — fixed key,
// fixed nonce stream — of (genuineAddr, genuinePayload). The
// genuine-slot-* seeds derive from it.
const genuineAddr = 5

var genuinePayload = []byte("hello")

// genuineSlot seals the genuine slot and returns it with the payload
// opening it must give back, zero-padded to BlockSize.
func genuineSlot(t testing.TB) (slot, payload []byte) {
	c := record.New(aesSealer(t), testBlockSize)
	pts, sealed := record.Slab(1, c.PtSize()), record.Slab(1, c.SlotSize())
	c.Encode(pts[0], genuineAddr, genuinePayload)
	if err := c.SealRun(pts, sealed); err != nil {
		t.Fatal(err)
	}
	_, payload = c.Decode(pts[0])
	return sealed[0], bytes.Clone(payload)
}

// FuzzRecordCodec covers the sealed-record codec from both ends of the
// bus. raw is what an adversary can put in a device slot: opening it
// must fail cleanly — authentication, framing or size — and never
// panic or hand back a payload, unless raw is exactly the genuine slot,
// which must open to its own (addr, payload). (addr, payload) is what a
// scheme can ask the codec to store: it must round-trip exactly,
// zero-padded to BlockSize, over both sealers, and flipping any one bit
// of the AES-sealed slot must be an authentication failure.
func FuzzRecordCodec(f *testing.F) {
	overhead := aesSealer(f).Overhead()
	genuine, genuineOpened := genuineSlot(f)
	f.Add([]byte{}, int64(0), []byte{}, uint(0))
	f.Add(make([]byte, testBlockSize+record.HeaderSize+overhead), record.DummyAddr, []byte(nil), uint(63))
	f.Add(bytes.Repeat([]byte{0xa5}, overhead-1), int64(1)<<62, bytes.Repeat([]byte{7}, testBlockSize), uint(8*overhead))
	f.Add([]byte("short"), int64(-2), []byte("a payload longer than BlockSize is cut to it, not refused........"), uint(1<<20))
	f.Fuzz(func(t *testing.T, raw []byte, addr int64, payload []byte, bit uint) {
		aes := record.New(aesSealer(t), testBlockSize)
		null := record.New(blockcipher.NullSealer{}, testBlockSize)

		gotAddr, got, err := aes.OpenInto(make([]byte, aes.PtSize()), raw)
		switch {
		case bytes.Equal(raw, genuine):
			if err != nil || gotAddr != genuineAddr || !bytes.Equal(got, genuineOpened) {
				t.Fatalf("genuine slot opened to (%d, %x, %v), want (%d, %x)", gotAddr, got, err, genuineAddr, genuineOpened)
			}
		case err == nil || got != nil:
			t.Fatalf("adversarial slot %x opened: payload %x, err %v", raw, got, err)
		case errors.Is(err, blockcipher.ErrAuth), errors.Is(err, blockcipher.ErrCiphertext):
		case len(raw) == aes.SlotSize():
			t.Fatalf("slot-sized input refused with %v, want ErrAuth", err)
		}

		if len(payload) > testBlockSize {
			payload = payload[:testBlockSize]
		}
		want := append(bytes.Clone(payload), make([]byte, testBlockSize-len(payload))...)
		for _, c := range []*record.Codec{aes, null} {
			pts, sealed := record.Slab(1, c.PtSize()), record.Slab(1, c.SlotSize())
			c.Encode(pts[0], addr, payload)
			if err := c.SealRun(pts, sealed); err != nil {
				t.Fatal(err)
			}
			back := record.Slab(1, c.PtSize())
			if err := c.OpenRun(back, sealed); err != nil {
				t.Fatal(err)
			}
			if gotAddr, gotPayload := c.Decode(back[0]); gotAddr != addr || !bytes.Equal(gotPayload, want) {
				t.Fatalf("round trip of (%d, %x) = (%d, %x)", addr, payload, gotAddr, gotPayload)
			}
			if c != aes {
				continue
			}
			bit %= uint(8 * len(sealed[0]))
			sealed[0][bit/8] ^= 1 << (bit % 8)
			if _, got, err := c.OpenInto(back[0], sealed[0]); !errors.Is(err, blockcipher.ErrAuth) || got != nil {
				t.Fatalf("bit %d flipped: OpenInto = (%x, %v), want ErrAuth", bit, got, err)
			}
		}
	})
}
