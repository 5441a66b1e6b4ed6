package server

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/obs"
)

// The shard-control verbs must be refused unless the server was
// explicitly started as a shard node: PAD burns I/O budget and
// CHECKPT writes snapshots, neither of which a public front end may
// expose to arbitrary clients.
func TestShardControlDisabledByDefault(t *testing.T) {
	addr, _ := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Cycles(); err == nil || !strings.Contains(err.Error(), "shard-control disabled") {
		t.Fatalf("CYCLES without ShardControl: got %v, want shard-control refusal", err)
	}
	if _, err := c.Pad(10); err == nil || !strings.Contains(err.Error(), "shard-control disabled") {
		t.Fatalf("PAD without ShardControl: got %v, want shard-control refusal", err)
	}
	if err := c.Checkpt(1); err == nil || !strings.Contains(err.Error(), "shard-control disabled") {
		t.Fatalf("CHECKPT without ShardControl: got %v, want shard-control refusal", err)
	}
	if _, err := c.Peek(); err == nil || !strings.Contains(err.Error(), "shard-control disabled") {
		t.Fatalf("PEEK without ShardControl: got %v, want shard-control refusal", err)
	}
}

// CYCLES/PAD round-trip: run some traffic, read the count over the
// wire, pad past it, and observe the padded count — the primitive a
// gateway's cross-node leveling pass is built from.
func TestShardControlCyclesAndPad(t *testing.T) {
	opts := engine.Options{
		Blocks:      256,
		BlockSize:   32,
		MemoryBytes: 8 << 10,
		Insecure:    true,
		Seed:        "shardctl-test",
	}
	shardOpts, err := engine.ShardConfig(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(shardOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	addr, _ := startServer(t, Config{Engine: e, ShardControl: true})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Write(3, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	n, err := c.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("CYCLES after one write: got %d, want >= 1", n)
	}
	padded, err := c.Pad(n + 7)
	if err != nil {
		t.Fatal(err)
	}
	if padded != 7 {
		t.Fatalf("PAD %d from %d: padded %d cycles, want 7", n+7, n, padded)
	}
	after, err := c.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	if after != n+7 {
		t.Fatalf("CYCLES after pad: got %d, want %d", after, n+7)
	}
	// Padding to a target already reached is a no-op, not an error.
	if padded, err := c.Pad(after - 1); err != nil || padded != 0 {
		t.Fatalf("PAD below current count: got (%d, %v), want (0, nil)", padded, err)
	}
}

// PEEK must echo the node's cluster identity and geometry — the
// fields a gateway validates placement against — and CHECKPT on a
// sim-only node must surface the core's durability refusal instead of
// pretending to checkpoint.
func TestShardControlPeekAndCheckpt(t *testing.T) {
	opts := engine.Options{
		Blocks:      256,
		BlockSize:   32,
		MemoryBytes: 8 << 10,
		Insecure:    true,
		Seed:        "shardctl-test",
		Shards:      2,
	}
	shardOpts, err := engine.ShardConfig(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(shardOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	addr, _ := startServer(t, Config{Engine: e, ShardControl: true})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	kv, err := c.Peek()
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"epoch":      "0",
		"checkpoint": "0",
		"cshards":    "2",
		"shard":      "1",
		"shards":     "1",
		"blocksize":  "32",
		"insecure":   "true",
	} {
		if kv[key] != want {
			t.Errorf("PEEK %s = %q, want %q (full echo: %v)", key, kv[key], want, kv)
		}
	}
	// The node serves its slice of the 2-way partition: 256/2 blocks.
	if kv["blocks"] != "128" {
		t.Errorf("PEEK blocks = %q, want 128", kv["blocks"])
	}

	if err := c.Checkpt(1); err == nil {
		t.Fatal("CHECKPT on a sim-only node succeeded; want a durability refusal")
	}
	if err := c.Checkpt(0); err == nil || !strings.Contains(err.Error(), "start at 1") {
		t.Fatalf("CHECKPT 0: got %v, want checkpoint-numbering refusal", err)
	}
}

// The METRICS verb hands out the node's exposition, which must name no
// Trusted series — those are for the node's STATS only — while STATS
// on the same node carries every one of them.
func TestMetricsVerbOmitsTrustedSeries(t *testing.T) {
	addr, srv := startServer(t, Config{ShardControl: true, MaxBatch: 1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(5, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	trusted := 0
	for id, d := range srv.reg.Decls() {
		if d.Class != obs.ClassTrusted {
			continue
		}
		trusted++
		name, _, _ := strings.Cut(id, "{")
		if strings.Contains(text, name) {
			t.Errorf("METRICS payload names the Trusted series %s", name)
		}
		if _, ok := kv[id]; !ok && !strings.HasPrefix(id, "horam_shard_drain_size") {
			t.Errorf("STATS lacks the Trusted series %s", id)
		}
	}
	if trusted == 0 {
		t.Fatal("the node registered no Trusted series; the check above proved nothing")
	}
}
