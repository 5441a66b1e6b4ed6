package horam

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/posmap"
)

// lastPooled returns the pooled address the partition quanta absorb
// last, so it stays in the pool for as many cycles as possible.
func lastPooled(t *testing.T, o *ORAM) int64 {
	t.Helper()
	addr, idx := int64(-1), int64(-1)
	for a := int64(0); a < o.cfg.Blocks; a++ {
		e, err := o.perm.Lookup(a)
		if err != nil {
			t.Fatal(err)
		}
		if e.Tier == posmap.TierPool && e.Slot > idx {
			addr, idx = a, e.Slot
		}
	}
	if addr < 0 {
		t.Fatal("no permutation-list entry is in the pool tier while a shuffle is pending")
	}
	return addr
}

func wantTier(t *testing.T, o *ORAM, addr int64, want posmap.Tier) {
	t.Helper()
	e, err := o.perm.Lookup(addr)
	if err != nil {
		t.Fatal(err)
	}
	if e.Tier != want {
		t.Fatalf("address %d is in the %v tier, want %v", addr, e.Tier, want)
	}
}

// TestPoolTierServesAndPlaces follows one block through an in-flight
// shuffle: the evict quantum records it in the pool tier, a write and a
// read while the shuffle is pending are served from the pool, and the
// partition rewrite that absorbs it places the written value in
// storage.
func TestPoolTierServesAndPlaces(t *testing.T) {
	o := build(t, 144, 16, 60)
	for a := int64(0); a < o.cfg.Blocks; a++ {
		if err := o.Write(a, fill(o.cfg.BlockSize, byte(a))); err != nil {
			t.Fatal(err)
		}
	}
	driveToPendingShuffle(t, o)
	addr := lastPooled(t, o)
	got, err := o.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if want := fill(o.cfg.BlockSize, byte(addr)); !bytes.Equal(got, want) {
		t.Fatalf("pool read of %d = %x, want %x", addr, got, want)
	}

	wantTier(t, o, addr, posmap.TierPool)
	updated := fill(o.cfg.BlockSize, 0xA5)
	if err := o.Write(addr, updated); err != nil {
		t.Fatal(err)
	}
	if !o.ShufflePending() {
		t.Fatal("shuffle finished before the pool read-back; geometry drifted")
	}
	wantTier(t, o, addr, posmap.TierPool)
	if got, err := o.Read(addr); err != nil || !bytes.Equal(got, updated) {
		t.Fatalf("read-back from the pool = %x, %v; want %x", got, err, updated)
	}

	if err := o.FinishShuffle(); err != nil {
		t.Fatal(err)
	}
	wantTier(t, o, addr, posmap.TierStorage)
	if got, err := o.Read(addr); err != nil || !bytes.Equal(got, updated) {
		t.Fatalf("read after the shuffle placed the block = %x, %v; want %x", got, err, updated)
	}
}

// TestRestoreRefusesUnknownTiers covers install's tier guard. A valid
// snapshot holds only storage and memory entries — CaptureSnapshot
// finishes an in-flight shuffle first, so no entry is in the pool — and
// a restored list must not point into a pool that does not exist.
func TestRestoreRefusesUnknownTiers(t *testing.T) {
	cfg := testConfig(144, 16, 60)
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveToPendingShuffle(t, o)
	snap, err := o.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(testConfig(144, 16, 60), snap); err != nil {
		t.Fatalf("unmodified snapshot refused: %v", err)
	}
	for _, tier := range []uint8{uint8(posmap.TierPool), 7} {
		bad := *snap
		bad.PermTier = append([]uint8(nil), snap.PermTier...)
		bad.PermTier[3] = tier
		_, err := Restore(testConfig(144, 16, 60), &bad)
		if err == nil || !strings.Contains(err.Error(), "invalid tier") {
			t.Fatalf("tier %d: Restore err = %v, want an invalid-tier refusal", tier, err)
		}
	}
}
