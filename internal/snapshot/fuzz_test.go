package snapshot_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
)

// FuzzSnapshotContainer feeds a file the adversary wrote to the readers
// a restore runs on it: whoever controls the disk controls every
// container, and storage.gen in particular is an unsealed gob. ReadFile
// and ReadGen must refuse any file WriteFile would not have written,
// and DecodeShard and DecodeManifest must turn any payload that does
// verify into either a value or an error. Nothing may panic.
//
// The committed seeds are genuine WriteFile, WriteGen and Encode
// outputs, truncated and bit-flipped copies of them, and containers
// whose checksum was recomputed over a damaged gob, so the decoders
// see malformed payloads too.
func FuzzSnapshotContainer(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.snap")
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		payload, err := snapshot.ReadFile(path)
		if _, gerr := snapshot.ReadGen(path); err != nil {
			if payload != nil || gerr == nil {
				t.Fatalf("ReadFile refused the file (%v) but returned payload %x; ReadGen error %v", err, payload, gerr)
			}
			return
		}
		again := filepath.Join(dir, "again.snap")
		if err := snapshot.WriteFile(again, payload); err != nil {
			t.Fatal(err)
		}
		if canonical, err := os.ReadFile(again); err != nil || !bytes.Equal(raw, canonical) {
			t.Fatalf("ReadFile accepted %x; WriteFile writes its payload as %x (%v)", raw, canonical, err)
		}
		if s, err := snapshot.DecodeShard(payload); (s == nil) == (err == nil) {
			t.Fatalf("DecodeShard = (%v, %v), want exactly one of a shard and an error", s, err)
		}
		if m, err := snapshot.DecodeManifest(payload); (m == nil) == (err == nil) {
			t.Fatalf("DecodeManifest = (%v, %v), want exactly one of a manifest and an error", m, err)
		}
	})
}
