// The distributed half of the volume-leveling invariant: a gateway
// engine over real TCP shard nodes must behave exactly like the
// single-process sharded engine — identical results (differential
// against a plain map) and, the hard part, GLOBALLY leveled per-shard
// cycle counts: after any batch, every node in a quiescent cluster
// has run the same number of scheduler cycles, however adversarially
// skewed the workload, because Engine.level reads and pads counts
// over the wire (CYCLES/PAD).
package cluster

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/server"
)

// testDial keeps probe retries tight for loopback tests.
var testDial = client.DialConfig{
	Timeout:  2 * time.Second,
	Attempts: 5,
	Backoff:  20 * time.Millisecond,
}

// gatewayOpts is the GLOBAL geometry the gateway and every node
// derive their configuration from — small enough that a few hundred
// requests push every shard through multiple shuffle periods.
func gatewayOpts(shards int) engine.Options {
	return engine.Options{
		Blocks:      1024,
		BlockSize:   64,
		MemoryBytes: 16 << 10,
		Insecure:    true,
		Seed:        fmt.Sprintf("cluster-%d", shards),
		Shards:      shards,
		Stages:      []config.Stage{{C: 3, Frac: 1}},
	}
}

// startNode runs one horamd-equivalent shard node in-process: a
// 1-shard engine built from engine.ShardConfig, served with
// shard-control enabled on a loopback listener.
func startNode(t *testing.T, opts engine.Options, index int) string {
	t.Helper()
	shardOpts, err := engine.ShardConfig(opts, index)
	if err != nil {
		t.Fatal(err)
	}
	return serveEngine(t, shardOpts)
}

func serveEngine(t *testing.T, shardOpts engine.Options) string {
	t.Helper()
	e, err := engine.New(shardOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Engine:       e,
		ShardControl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("node Serve returned %v", err)
		}
		e.Close()
	})
	return ln.Addr().String()
}

// startCluster brings up one node per shard and connects the gateway
// engine over them.
func startCluster(t *testing.T, opts engine.Options) *engine.Engine {
	t.Helper()
	p := Placement{}
	for i := 0; i < opts.Shards; i++ {
		p.Nodes = append(p.Nodes, startNode(t, opts, i))
	}
	e, err := Connect(opts, p, testDial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// nodeCycles reads every node's cumulative cycle count over the wire.
func nodeCycles(t *testing.T, e *engine.Engine) []int64 {
	t.Helper()
	counts := make([]int64, e.Shards())
	for i := range counts {
		n, err := e.Backend(i).Cycles()
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = n
	}
	return counts
}

// TestClusterGlobalLeveling is the acceptance core: hot-single-address
// vs uniform-scan against 2- and 4-node clusters, differential
// against a map, with per-node cycle counts asserted EQUAL after
// every batch and the workloads pushed through at least two shuffle
// periods per shard.
func TestClusterGlobalLeveling(t *testing.T) {
	const requests = 600
	const batchSize = 50
	workloads := []struct {
		name string
		addr func(i int) int64
	}{
		{"hot-single-address", func(i int) int64 { return 7 }},
		{"uniform-scan", func(i int) int64 { return int64(i*31) % 1024 }},
	}
	for _, shards := range []int{2, 4} {
		for _, wl := range workloads {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, wl.name), func(t *testing.T) {
				opts := gatewayOpts(shards)
				e := startCluster(t, opts)

				// Differential model: plain map, zero block for
				// never-written addresses.
				model := make(map[int64][]byte)
				expect := func(addr int64) []byte {
					if v, ok := model[addr]; ok {
						return v
					}
					return make([]byte, opts.BlockSize)
				}
				payload := func(addr int64, i int) []byte {
					b := make([]byte, opts.BlockSize)
					copy(b, fmt.Sprintf("a%d-i%d", addr, i))
					return b
				}

				type check struct {
					req  *engine.Request
					want []byte
				}
				for off := 0; off < requests; off += batchSize {
					var reqs []*engine.Request
					var checks []check
					for i := off; i < off+batchSize; i++ {
						addr := wl.addr(i)
						if i%3 == 0 {
							data := payload(addr, i)
							reqs = append(reqs, &engine.Request{Op: engine.OpWrite, Addr: addr, Data: data})
							model[addr] = data
						} else {
							r := &engine.Request{Op: engine.OpRead, Addr: addr}
							reqs = append(reqs, r)
							// Expected value is the model at THIS point in
							// the serial order (same-shard order is
							// preserved within a batch).
							checks = append(checks, check{r, append([]byte(nil), expect(addr)...)})
						}
					}
					if err := e.Batch(reqs); err != nil {
						t.Fatal(err)
					}
					for _, c := range checks {
						if !bytes.Equal(c.req.Result, c.want) {
							t.Fatalf("addr %d read %q, model says %q", c.req.Addr, c.req.Result, c.want)
						}
					}
					// The invariant under test: after ANY batch, the
					// quiescent cluster shows equal per-node cycle counts
					// — read over the wire, not from local state.
					counts := nodeCycles(t, e)
					for i, n := range counts {
						if n != counts[0] {
							t.Fatalf("after batch at offset %d: node %d ran %d cycles, node 0 ran %d — leveling is not global (%v)",
								off, i, n, counts[0], counts)
						}
					}
					if counts[0] == 0 {
						t.Fatalf("after batch at offset %d: no cycles ran", off)
					}
				}

				// Through >= 2 shuffle periods on every shard: the nodes'
				// shuffle counters come back over STATS.
				stats := e.ShardStats()
				var padded int64
				for _, sh := range stats {
					if sh.Shuffles < 2 {
						t.Errorf("shard %d ran %d shuffles; the workload must span >= 2 shuffle periods", sh.Shard, sh.Shuffles)
					}
					padded += sh.PadCycles
				}
				// The hot workload funnels every request into one shard;
				// if no padding was recorded the equality above passed
				// vacuously.
				if wl.name == "hot-single-address" && padded == 0 {
					t.Error("no pad cycles recorded; cross-node leveling did not run")
				}
			})
		}
	}
}

// A node launched with drifted global options must be refused at
// Connect, before any traffic is served through it.
func TestConnectRefusesDriftedNode(t *testing.T) {
	opts := gatewayOpts(2)
	good := startNode(t, opts, 0)

	// Node 1 runs with a drifted seed: same geometry, different
	// partition — silently serving through it would scramble data.
	drifted := opts
	drifted.Seed = "cluster-drifted"
	bad := startNode(t, drifted, 1)

	_, err := Connect(opts, Placement{Nodes: []string{good, bad}}, testDial)
	if err == nil || !strings.Contains(err.Error(), "placement mismatch") {
		t.Fatalf("Connect with a drifted node: got %v, want placement-mismatch refusal", err)
	}
}

// A node serving the wrong shard index (placement order swapped) must
// be refused: its manifest echoes its true identity.
func TestConnectRefusesSwappedPlacement(t *testing.T) {
	opts := gatewayOpts(2)
	n0 := startNode(t, opts, 0)
	n1 := startNode(t, opts, 1)
	_, err := Connect(opts, Placement{Nodes: []string{n1, n0}}, testDial)
	if err == nil || !strings.Contains(err.Error(), "placement mismatch") {
		t.Fatalf("Connect with swapped placement: got %v, want placement-mismatch refusal", err)
	}
}

// A plain (non-shard-serve) server must fail the health probe: its
// shard-control verbs are disabled, so it cannot be leveled and must
// not be placed.
func TestConnectRefusesNonShardNode(t *testing.T) {
	opts := gatewayOpts(2)
	shardOpts, err := engine.ShardConfig(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(shardOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	srv, err := server.New(server.Config{Engine: e}) // no ShardControl
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	quick := testDial
	quick.Attempts = 2
	_, err = Connect(opts, Placement{Nodes: []string{ln.Addr().String(), ln.Addr().String()}}, quick)
	if err == nil || !strings.Contains(err.Error(), "shard-control disabled") {
		t.Fatalf("Connect to a non-shard node: got %v, want shard-control refusal", err)
	}
}

func TestParsePlacement(t *testing.T) {
	p, err := ParsePlacement("127.0.0.1:7001, 127.0.0.1:7002")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 2 || p.Nodes[0] != "127.0.0.1:7001" || p.Nodes[1] != "127.0.0.1:7002" {
		t.Fatalf("ParsePlacement: got %v", p.Nodes)
	}
	for _, bad := range []string{"", " ", "a:1,,b:2", "a:1,a:1"} {
		if _, err := ParsePlacement(bad); err == nil {
			t.Errorf("ParsePlacement(%q) accepted", bad)
		}
	}
}
