// Integration tests: cross-module flows exercised end to end with real
// cryptography — the paths the per-package unit tests cover in
// isolation.
package repro

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/blockcipher"
	"repro/internal/core"
	"repro/internal/horam"
)

func integrationKey() []byte {
	k := make([]byte, 32)
	for i := range k {
		k[i] = byte(91 * i)
	}
	return k
}

// TestEndToEndWithRealCrypto runs a full H-ORAM session through the
// public API with AES-GCM sealing on every block, crossing
// several shuffle periods.
func TestEndToEndWithRealCrypto(t *testing.T) {
	client, err := core.Open(core.Options{
		Blocks:      512,
		BlockSize:   128,
		MemoryBytes: 16 << 10, // tiny: forces shuffles
		Key:         integrationKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	version := make(map[int64]byte)
	rng := blockcipher.NewRNGFromString("e2e")
	for i := 0; i < 400; i++ {
		a := rng.Int63n(512)
		if rng.Intn(2) == 0 {
			v := byte(rng.Intn(256))
			if err := client.Write(a, bytes.Repeat([]byte{v}, 128)); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			version[a] = v
		} else {
			got, err := client.Read(a)
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			want := byte(0)
			if v, ok := version[a]; ok {
				want = v
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{want}, 128)) {
				t.Fatalf("iteration %d: Read(%d) corrupted", i, a)
			}
		}
	}
	if client.Stats().Shuffles == 0 {
		t.Fatal("expected shuffle periods with a 16 KB memory tier")
	}
}

// TestTamperDetectedThroughTheStack corrupts a raw storage slot and
// checks that the authentication failure surfaces through H-ORAM's
// public API instead of silently returning wrong data.
func TestTamperDetectedThroughTheStack(t *testing.T) {
	client, err := core.Open(core.Options{
		Blocks:      256,
		BlockSize:   64,
		MemoryBytes: 8 << 10,
		Key:         integrationKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	stor := client.Engine().Stor()
	junk := make([]byte, stor.SlotSize())
	for slot := int64(0); slot < stor.Slots(); slot++ {
		if err := stor.WriteRaw(slot, junk); err != nil {
			t.Fatal(err)
		}
	}
	// Every storage fetch must now fail authentication. The scheduler
	// fetches on the first access.
	if _, err := client.Read(0); err == nil {
		t.Fatal("read of fully tampered storage succeeded")
	}
}

// TestSameSeedSameTrace re-runs a full experiment and requires
// bit-identical scheme counters and virtual time — the property the
// whole evaluation's reproducibility rests on.
func TestSameSeedSameTrace(t *testing.T) {
	run := func() (horam.Stats, int64) {
		client, err := core.Open(core.Options{
			Blocks:      512,
			BlockSize:   64,
			MemoryBytes: 8 << 10,
			Insecure:    true,
			Seed:        "trace-determinism",
		})
		if err != nil {
			t.Fatal(err)
		}
		var reqs []*core.Request
		for i := 0; i < 300; i++ {
			reqs = append(reqs, &core.Request{Addr: int64(i*7) % 512})
		}
		if err := client.Batch(reqs); err != nil {
			t.Fatal(err)
		}
		return client.Stats().Stats, int64(client.Stats().SimulatedTime)
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("same seed diverged:\n%+v @%d\n%+v @%d", s1, t1, s2, t2)
	}
}

// TestHORAMMatchesReferenceModel drives H-ORAM and a plain map with
// the same randomized operation sequence (property-based).
func TestHORAMMatchesReferenceModel(t *testing.T) {
	f := func(ops []uint16, writes []byte) bool {
		client, err := core.Open(core.Options{
			Blocks:      64,
			BlockSize:   16,
			MemoryBytes: 1 << 10,
			Insecure:    true,
			Seed:        "ref-model",
		})
		if err != nil {
			return false
		}
		ref := make(map[int64]byte)
		for i, op := range ops {
			addr := int64(op % 64)
			if i < len(writes) && op%3 == 0 {
				v := writes[i]
				if err := client.Write(addr, bytes.Repeat([]byte{v}, 16)); err != nil {
					return false
				}
				ref[addr] = v
			} else {
				got, err := client.Read(addr)
				if err != nil {
					return false
				}
				want := byte(0)
				if v, ok := ref[addr]; ok {
					want = v
				}
				if !bytes.Equal(got, bytes.Repeat([]byte{want}, 16)) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBatchWriteReadInterleavingAcrossPeriods submits a batch that is
// guaranteed to straddle shuffle periods and checks program-order
// semantics survive the period boundary.
func TestBatchWriteReadInterleavingAcrossPeriods(t *testing.T) {
	client, err := core.Open(core.Options{
		Blocks:      256,
		BlockSize:   32,
		MemoryBytes: 2 << 10, // ~30-block tree: many periods
		Insecure:    true,
		Seed:        "periods",
	})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*core.Request
	for a := int64(0); a < 200; a++ {
		reqs = append(reqs, &core.Request{Op: horam.OpWrite, Addr: a, Data: bytes.Repeat([]byte{byte(a)}, 32)})
		reqs = append(reqs, &core.Request{Addr: a})
	}
	if err := client.Batch(reqs); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reqs); i += 2 {
		a := reqs[i].Addr
		if !bytes.Equal(reqs[i].Result, bytes.Repeat([]byte{byte(a)}, 32)) {
			t.Fatalf("read of %d after write returned stale data", a)
		}
	}
	if client.Stats().Shuffles < 2 {
		t.Fatalf("batch crossed only %d periods; geometry drifted", client.Stats().Shuffles)
	}
}
