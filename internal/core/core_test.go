package core

import (
	"bytes"
	"testing"
)

func testKey() []byte {
	k := make([]byte, 32)
	for i := range k {
		k[i] = byte(i + 1)
	}
	return k
}

func open(t *testing.T) *Client {
	t.Helper()
	c, err := Open(Options{Blocks: 256, BlockSize: 64, MemoryBytes: 32 << 10, Key: testKey()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOpenValidation(t *testing.T) {
	base := Options{Blocks: 64, BlockSize: 64, MemoryBytes: 16 << 10, Key: testKey()}

	bad := base
	bad.Blocks = 0
	if _, err := Open(bad); err == nil {
		t.Error("accepted zero blocks")
	}
	bad = base
	bad.MemoryBytes = 0
	if _, err := Open(bad); err == nil {
		t.Error("accepted zero memory")
	}
	bad = base
	bad.Key = []byte("short")
	if _, err := Open(bad); err == nil {
		t.Error("accepted short key")
	}
	bad = base
	bad.BlockSize = -1
	if _, err := Open(bad); err == nil {
		t.Error("accepted negative block size")
	}
	// No key needed when insecure.
	ok := base
	ok.Key = nil
	ok.Insecure = true
	if _, err := Open(ok); err != nil {
		t.Errorf("insecure open failed: %v", err)
	}
}

func TestDefaultBlockSize(t *testing.T) {
	c, err := Open(Options{Blocks: 64, MemoryBytes: 64 << 10, Key: testKey()})
	if err != nil {
		t.Fatal(err)
	}
	if c.BlockSize() != DefaultBlockSize {
		t.Fatalf("BlockSize() = %d, want %d", c.BlockSize(), DefaultBlockSize)
	}
}

func TestReadWrite(t *testing.T) {
	c := open(t)
	want := bytes.Repeat([]byte{7}, 64)
	if err := c.Write(10, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip failed")
	}
}

// TestClientImplementsStore checks the block-store behaviour a client
// offers: it reads back what it wrote, and a never-written block reads
// as zeros.
func TestClientImplementsStore(t *testing.T) {
	c := open(t)
	want := bytes.Repeat([]byte{0x5a}, 64)
	if err := c.Write(3, want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		addr int64
		want []byte
	}{{3, want}, {4, make([]byte, 64)}} {
		got, err := c.Read(tc.addr)
		if err != nil {
			t.Fatalf("Read(%d): %v", tc.addr, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("Read(%d) = %x, want %x", tc.addr, got, tc.want)
		}
	}
}

func TestBatch(t *testing.T) {
	c := open(t)
	var reqs []*Request
	for a := int64(0); a < 32; a++ {
		reqs = append(reqs, &Request{Op: 1 /* write */, Addr: a, Data: bytes.Repeat([]byte{byte(a)}, 64)})
	}
	if err := c.Batch(reqs); err != nil {
		t.Fatal(err)
	}
	read := &Request{Addr: 9}
	if err := c.Batch([]*Request{read}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read.Result, bytes.Repeat([]byte{9}, 64)) {
		t.Fatal("batch read wrong")
	}
}

func TestStatsProgress(t *testing.T) {
	c := open(t)
	c.Write(0, make([]byte, 64))
	c.Read(0)
	st := c.Stats()
	if st.Requests != 2 {
		t.Fatalf("Requests = %d, want 2", st.Requests)
	}
	if st.SimulatedTime <= 0 {
		t.Fatal("no simulated time accrued")
	}
	if st.AccessTime+st.ShuffleTime != st.SimulatedTime {
		t.Fatal("time buckets do not sum to total")
	}
	if c.Engine() == nil {
		t.Fatal("Engine() nil")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() int64 {
		c, err := Open(Options{Blocks: 128, BlockSize: 32, MemoryBytes: 8 << 10,
			Insecure: true, Seed: "fixed"})
		if err != nil {
			t.Fatal(err)
		}
		for a := int64(0); a < 64; a++ {
			c.Write(a, make([]byte, 32))
		}
		return int64(c.Stats().SimulatedTime)
	}
	if run() != run() {
		t.Fatal("same seed produced different simulated time")
	}
}
