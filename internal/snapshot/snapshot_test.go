package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestContainerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	payload := bytes.Repeat([]byte{0xc3, 0x07}, 1000)
	if err := WriteFile(path, payload); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload did not round-trip")
	}
}

func TestContainerOverwriteIsAtomicReplacement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := WriteFile(path, []byte("generation-1")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := WriteFile(path, []byte("generation-2")); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "generation-2" {
		t.Fatalf("payload = %q, want generation-2", got)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after overwrite, want 1", len(entries))
	}
}

// TestTornSnapshotRejected is the crash-safety contract: any
// truncation or bit flip of a container must be rejected by the
// checksum, never silently loaded.
func TestTornSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	payload := bytes.Repeat([]byte{0x5a}, 4096)
	if err := WriteFile(path, payload); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	// Truncations at every region: header, payload, checksum.
	for _, n := range []int{0, 4, headerLen - 1, headerLen + 100, len(raw) - checksumLen, len(raw) - 1} {
		p := filepath.Join(dir, "torn.snap")
		if err := os.WriteFile(p, raw[:n], 0o600); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if _, err := ReadFile(p); err == nil {
			t.Errorf("truncation to %d bytes was accepted", n)
		}
	}

	// A bit flip anywhere — payload, header, checksum — must fail.
	for _, off := range []int{9, headerLen + 17, len(raw) - 5} {
		flipped := append([]byte(nil), raw...)
		flipped[off] ^= 0x40
		p := filepath.Join(dir, "flipped.snap")
		if err := os.WriteFile(p, flipped, 0o600); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		_, err := ReadFile(p)
		if err == nil {
			t.Errorf("bit flip at offset %d was accepted", off)
		}
		if off > 12 && !errors.Is(err, ErrChecksum) {
			t.Errorf("bit flip at offset %d: err = %v, want ErrChecksum", off, err)
		}
	}

	// Wrong magic and wrong version get their own errors.
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	p := filepath.Join(dir, "magic.snap")
	os.WriteFile(p, bad, 0o600)
	if _, err := ReadFile(p); !errors.Is(err, ErrFormat) {
		t.Errorf("wrong magic: err = %v, want ErrFormat", err)
	}
}

// TestReadFileRefusesOldVersion: a well-formed container written by a
// version-1 build (before records became AES-GCM) is refused with
// ErrVersion, so a pre-flip data directory fails typed at the first
// file a restore reads instead of as garbage further in.
func TestReadFileRefusesOldVersion(t *testing.T) {
	payload := []byte("a version-1 payload")
	raw := append([]byte(nil), magic[:]...)
	raw = binary.BigEndian.AppendUint32(raw, 1)
	raw = binary.BigEndian.AppendUint64(raw, uint64(len(payload)))
	raw = append(raw, payload...)
	sum := sha256.Sum256(raw)
	raw = append(raw, sum[:]...)
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("ReadFile(version 1) = (%q, %v), want ErrVersion", got, err)
	}
}

func TestShardCodecRoundTrip(t *testing.T) {
	s := &Shard{
		Blocks: 128, BlockSize: 32, SlotSize: 40, MemSlots: 15,
		Partitions: 12, PartSlots: 11, MissBudget: 7, Epoch: 3,
		MissCount: 2, NextPart: 5, ShuffleGen: 9,
		Stats:       Counters{Requests: 100, Cycles: 42, Hits: 80, Misses: 20},
		PermTier:    []uint8{0, 1, 0},
		PermSlot:    []int64{5, 0, 7},
		PermTouched: []bool{false, false, true},
		Leaves:      []int64{-1, 3, -1},
		RealCount:   1,
		StashAddrs:  []int64{1},
		StashData:   [][]byte{bytes.Repeat([]byte{1}, 32)},
		MemImage:    [][]byte{bytes.Repeat([]byte{2}, 40)},
	}
	b, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeShard(b)
	if err != nil {
		t.Fatalf("DecodeShard: %v", err)
	}
	if got.Blocks != s.Blocks || got.Epoch != s.Epoch || got.ShuffleGen != s.ShuffleGen ||
		got.Stats != s.Stats || len(got.MemImage) != 1 || !bytes.Equal(got.MemImage[0], s.MemImage[0]) ||
		len(got.StashData) != 1 || !bytes.Equal(got.StashData[0], s.StashData[0]) {
		t.Fatalf("shard did not round-trip: %+v", got)
	}
}

func TestManifestAndGenRoundTrip(t *testing.T) {
	m := &Manifest{Blocks: 1024, BlockSize: 64, Shards: 4, MemoryBytes: 1 << 16, ShuffleRatio: 0.5, Insecure: true, Epoch: 2}
	b, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeManifest(b)
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	if *got != *m {
		t.Fatalf("manifest = %+v, want %+v", got, m)
	}

	path := filepath.Join(t.TempDir(), "storage.gen")
	if err := WriteGen(path, Gen{Started: 8, Completed: 7}); err != nil {
		t.Fatalf("WriteGen: %v", err)
	}
	g, err := ReadGen(path)
	if err != nil {
		t.Fatalf("ReadGen: %v", err)
	}
	if g != (Gen{Started: 8, Completed: 7}) {
		t.Fatalf("gen = %+v", g)
	}
}

// TestManifestWithMonolithicShuffleStillDecodes restores a manifest
// written when the shuffle mode was still echoed: gob drops the field
// the current Manifest no longer has, and everything else survives.
func TestManifestWithMonolithicShuffleStillDecodes(t *testing.T) {
	type oldManifest struct {
		Blocks            int64
		BlockSize         int
		Shards            int
		ClusterShards     int
		ShardIndex        int
		MemoryBytes       int64
		ShuffleRatio      float64
		MonolithicShuffle bool
		ConstantTime      bool
		Insecure          bool
		Seed              string
		Epoch             uint64
		KV                *KVState
	}
	old := oldManifest{Blocks: 1024, BlockSize: 64, Shards: 2, MemoryBytes: 1 << 16, MonolithicShuffle: true, ConstantTime: true, Seed: "s", Epoch: 3}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeManifest refused an old-shape manifest: %v", err)
	}
	want := Manifest{Blocks: 1024, BlockSize: 64, Shards: 2, MemoryBytes: 1 << 16, ConstantTime: true, Seed: "s", Epoch: 3}
	if *got != want {
		t.Fatalf("manifest = %+v, want %+v", *got, want)
	}
}
