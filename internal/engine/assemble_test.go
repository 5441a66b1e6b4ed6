package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// imageOpts is a four-shard durable geometry with a fixed seed and
// NullSealer, so every shard's storage image is a pure function of
// the seed and the request stream.
func imageOpts(dir string) Options {
	return Options{
		Blocks:      2048,
		BlockSize:   64,
		MemoryBytes: 16 << 10,
		Shards:      4,
		Insecure:    true,
		Seed:        "shard-images",
		DataDir:     dir,
	}
}

// shardImages returns the SHA-256 of every shard's storage file.
func shardImages(t *testing.T, dir string, shards int) []string {
	t.Helper()
	sums := make([]string, shards)
	for s := range sums {
		data, err := os.ReadFile(filepath.Join(shardDir(dir, s), core.StorageFileName))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		sums[s] = hex.EncodeToString(sum[:])
	}
	return sums
}

func pinImages(t *testing.T, when string, got, want []string) {
	t.Helper()
	for s := range want {
		if got[s] != want[s] {
			t.Errorf("%s: shard %d storage image %s, want %s", when, s, got[s], want[s])
		}
	}
}

// TestShardImagesPinned pins every shard's storage image after New and
// after a batch stream, a checkpoint, a Restore and more traffic. The
// shards open and restore side by side; each must build exactly the
// image it would build alone, whatever order they finish in.
func TestShardImagesPinned(t *testing.T) {
	opts := imageOpts(t.TempDir())
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	pinImages(t, "after New", shardImages(t, opts.DataDir, opts.Shards), []string{
		"3c7a541edb7036b189a5dde613bda19108fd83b152f9523d7029d0be3d6b6b53",
		"3f420b2ffb727ba6a7cfa24b806a7da36a80117e9a58ef1e30e2f2395fcab74d",
		"39cb032e34cb3bc6d9e4f9cc598916561a1bd722c434ff5bf92f34ceb0a61f05",
		"9aee43cfa91a19772d46431fc3e3efa4e402896de5881954872fdca4febe3fd3",
	})
	model := make(map[int64]byte)
	runWorkload(t, e, "shard-images-1", 600, model)
	if e.Stats().Shuffles == 0 {
		t.Fatal("the first stream shuffled no partition; it pins nothing past set-up")
	}
	if err := e.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(opts)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	runWorkload(t, r, "shard-images-2", 600, model)
	pinImages(t, "after restore and traffic", shardImages(t, opts.DataDir, opts.Shards), []string{
		"b86eb69ae487d7126d0c634464ee1f15cf57233e46d7dc23fa1cd2dc5ff706f3",
		"182c04f8481e62ec9163928b86d93b7643ca115cfd0875d7e25f1e69fb6bd053",
		"4c3f357cc934195426a90bc58bb4f6c70510bbe064a1c1b04d19c3471f471311",
		"6b84955a38808f0cef4ae34fa8ad19412e295ba52ad1633e2fb61dd5e1950cd4",
	})
	checkModel(t, r, model, "after restore and traffic")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// openFDsOn reports the descriptors of this process that hold path
// open; where /proc/self/fd is unavailable it logs that the check is
// skipped and reports none.
func openFDsOn(t *testing.T, path string) []string {
	t.Helper()
	resolved, err := filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Logf("no /proc/self/fd (%v): fd leak check skipped", err)
		return nil
	}
	var fds []string
	for _, fd := range entries {
		if link, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); link == resolved {
			fds = append(fds, fd.Name())
		}
	}
	return fds
}

// TestFailedNewUnwinds: when one shard of four cannot open, New names
// that shard, closes every shard that did open (no descriptor holds
// their storage files), and succeeds once the directory is repaired.
func TestFailedNewUnwinds(t *testing.T) {
	opts := imageOpts(t.TempDir())
	if err := os.MkdirAll(opts.DataDir, 0o700); err != nil {
		t.Fatal(err)
	}
	blocker := shardDir(opts.DataDir, 2)
	if err := os.WriteFile(blocker, []byte("not a directory"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(opts); err == nil || !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("New with shard 2 blocked: err = %v, want a refusal naming shard 2", err)
	}
	for s := 0; s < opts.Shards; s++ {
		if s == 2 {
			continue
		}
		path := filepath.Join(shardDir(opts.DataDir, s), core.StorageFileName)
		if _, err := os.Stat(path); err != nil {
			continue // this shard had not created its file; nothing to leak
		}
		if fds := openFDsOn(t, path); len(fds) > 0 {
			t.Fatalf("fds %v still hold shard %d's storage file after the failed New", fds, s)
		}
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	e, err := New(opts)
	if err != nil {
		t.Fatalf("New after the directory is repaired: %v", err)
	}
	defer e.Close()
	checkModel(t, e, map[int64]byte{}, "after a failed then repaired New")
}

// BenchmarkNew times engine construction at block_pipelined's
// geometry: four file-backed shards of 8,192 one-KiB blocks, each
// sealing and writing its whole storage layout.
func BenchmarkNew(b *testing.B) {
	opts := Options{
		Blocks:      32768,
		BlockSize:   1024,
		MemoryBytes: 16 << 20,
		Shards:      4,
		Key:         bytes.Repeat([]byte{0x42}, 32),
		DataDir:     b.TempDir(),
	}
	for i := 0; i < b.N; i++ {
		e, err := New(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}
