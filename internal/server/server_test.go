package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

// startServer builds a small insecure store (2 shards unless the
// caller provided an engine), serves it on a loopback listener and
// returns the connect address plus the server handle.
func startServer(t *testing.T, cfg Config) (string, *Server) {
	t.Helper()
	if cfg.Engine == nil {
		e, err := engine.New(engine.Options{
			Blocks:      512,
			BlockSize:   64,
			MemoryBytes: 16 << 10,
			Insecure:    true,
			Seed:        "server-test",
			Shards:      2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		cfg.Engine = e
	}
	srv, err := New(cfg)
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
			t.Errorf("Serve returned %v", err)
		}
	})
	return ln.Addr().String(), srv
}

// TestConcurrentClientsBatching is the acceptance test: 8 concurrent
// clients hammer mixed READ/WRITE traffic over real TCP sockets, each
// client sees read-your-writes on its private address range, and
// requests from different connections really share scheduler drains.
// The server itself groups nothing (a single READ is a window of one),
// so the grouping is asserted where it happens — in the shard's queue —
// and made deterministic by parking the shard's scheduler while the
// other connections' requests arrive.
func TestConcurrentClientsBatching(t *testing.T) {
	const (
		clients   = 8
		perClient = 40
		region    = 32 // private blocks per client
	)
	e, held := enginetest.Hold(t, engine.Options{
		Blocks:      512,
		BlockSize:   64,
		MemoryBytes: 16 << 10,
		Insecure:    true,
		Seed:        "server-test",
		Shards:      1,
	})
	addr, srv := startServer(t, Config{Engine: e})

	// One READ per connection: the first parks the scheduler mid-drain,
	// the other seven queue behind it and must leave as ONE drain.
	var wg sync.WaitGroup
	errs := make(chan error, 2*clients)
	read := func(id int) {
		defer wg.Done()
		c, err := client.Dial(addr)
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		_, err = c.Read(int64(id * region))
		errs <- err
	}
	wg.Add(1)
	go read(0)
	if n := held[0].Entered(); n != 1 {
		t.Fatalf("first drain carried %d requests, want 1", n)
	}
	for id := 1; id < clients; id++ {
		wg.Add(1)
		go read(id)
	}
	enginetest.WaitQueued(t, e, 0, clients-1)
	held[0].Release()
	if n := held[0].Entered(); n != clients-1 {
		t.Fatalf("drain after the held one carried %d requests, want the %d queued behind it", n, clients-1)
	}
	held[0].Open()

	// Free-running mixed traffic for the correctness half.
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs <- runClient(addr, id, perClient, region)
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	const total = clients + clients*perClient
	st := srv.Stats()
	if st.Requests != total || st.Batches != total {
		t.Fatalf("served %d requests in %d windows, want %d single-request windows", st.Requests, st.Batches, total)
	}
	// The shard's side, read off the STATS line as an operator would.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n := statInt(t, kv, shardSeries("horam_shard_drained_requests", 0)); n != total {
		t.Fatalf("shard drained %d requests, want %d", n, total)
	}
	drains := statInt(t, kv, shardSeries("horam_shard_drains", 0))
	if drains > total-(clients-2) {
		t.Fatalf("%d drains for %d requests: the %d queued requests did not share one", drains, total, clients-1)
	}
	sizes := e.DrainSizes(0)
	if sizes.Bucket(sizes.BucketOf(clients-1)) == 0 {
		t.Fatalf("no drain in the size-%d bucket (drain sizes %s)", clients-1, sizes.BucketString())
	}
	t.Logf("windows=%d drains=%d mean drain=%.2f drain sizes=%s",
		st.Batches, drains, float64(total)/float64(drains), sizes.BucketString())
}

// shardSeries is the STATS series of the per-shard metric name on
// shard i, as the exposition writes it.
func shardSeries(name string, i int) string {
	return name + `{shard="` + strconv.Itoa(i) + `"}`
}

// statInt reads one integer series off a STATS map or fails the test.
func statInt(t *testing.T, kv map[string]string, series string) int64 {
	t.Helper()
	n, err := client.StatInt(kv, series)
	if err != nil {
		t.Fatalf("STATS %s: %v", series, err)
	}
	return n
}

// shardSum adds up one per-shard series over the shards.
func shardSum(t *testing.T, kv map[string]string, name string, shards int) int64 {
	t.Helper()
	var sum int64
	for i := 0; i < shards; i++ {
		sum += statInt(t, kv, shardSeries(name, i))
	}
	return sum
}

// runClient drives one connection with a deterministic mixed workload
// over its private region and checks read-your-writes throughout.
func runClient(addr string, id, ops, region int) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	base := int64(id * region)
	rng := blockcipher.NewRNGFromString(fmt.Sprint("client", id))
	last := make(map[int64]byte)
	for i := 0; i < ops; i++ {
		a := base + rng.Int63n(int64(region))
		if rng.Intn(2) == 0 {
			v := byte(rng.Intn(255) + 1)
			if err := c.Write(a, bytes.Repeat([]byte{v}, 64)); err != nil {
				return fmt.Errorf("client %d: write %d: %w", id, a, err)
			}
			last[a] = v
		} else {
			got, err := c.Read(a)
			if err != nil {
				return fmt.Errorf("client %d: read %d: %w", id, a, err)
			}
			want := bytes.Repeat([]byte{last[a]}, 64)
			if !bytes.Equal(got, want) {
				return fmt.Errorf("client %d: read-your-writes violated at %d", id, a)
			}
		}
	}
	return nil
}

// TestMultiVerb checks that MULTI runs a whole slice as one batch and
// returns per-op responses in order.
func TestMultiVerb(t *testing.T) {
	addr, srv := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ops := []client.Op{
		{Write: true, Addr: 3, Data: bytes.Repeat([]byte{1}, 64)},
		{Write: true, Addr: 4, Data: bytes.Repeat([]byte{2}, 64)},
		{Addr: 3},
		{Addr: 4},
		{Addr: 5},
	}
	res, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	if !bytes.Equal(res[2].Data, ops[0].Data) || !bytes.Equal(res[3].Data, ops[1].Data) {
		t.Fatal("MULTI reads did not observe MULTI writes")
	}
	if !bytes.Equal(res[4].Data, make([]byte, 64)) {
		t.Fatal("unwritten block not zero")
	}
	st := srv.Stats()
	if st.Batches != 1 || st.Requests != int64(len(ops)) {
		t.Fatalf("MULTI ran as %d batches / %d requests, want 1 / %d", st.Batches, st.Requests, len(ops))
	}
	if st.MeanBatch != float64(len(ops)) {
		t.Fatalf("mean batch %.2f, want %d", st.MeanBatch, len(ops))
	}
}

// TestProtocolErrors exercises the refusal paths over a raw socket.
func TestProtocolErrors(t *testing.T) {
	addr, _ := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(line string) string {
		fmt.Fprintln(conn, line)
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %q: %v", line, err)
		}
		return strings.TrimSpace(resp)
	}
	for _, tc := range []struct{ line, wantPrefix string }{
		{"FROB", "ERR unknown command"},
		{"READ", "ERR usage"},
		{"READ zzz", "ERR bad address"},
		{"READ 99999", "ERR address 99999 out of range"},
		{"WRITE 1 xyz", "ERR bad hex payload"},
		{"WRITE 1 abcd", "ERR payload 2 bytes"},
		{"MULTI", "ERR usage"},
	} {
		if got := send(tc.line); !strings.HasPrefix(got, tc.wantPrefix) {
			t.Errorf("%q -> %q, want prefix %q", tc.line, got, tc.wantPrefix)
		}
	}
	// A bad sub-line aborts the whole MULTI with one ERR line, drains
	// the declared frame (the trailing WRITE must NOT execute as a
	// top-level command) and keeps the connection usable and in sync.
	fmt.Fprintln(conn, "MULTI 3")
	fmt.Fprintln(conn, "READ 1")
	fmt.Fprintln(conn, "STATS")
	fmt.Fprintln(conn, "WRITE 2 "+strings.Repeat("ff", 64))
	if resp := send("READ 2"); !strings.HasPrefix(resp, "ERR MULTI line 2") {
		t.Fatalf("bad MULTI sub-line -> %q", resp)
	} else if resp := send("READ 2"); resp != "OK "+strings.Repeat("00", 64) {
		t.Fatalf("connection desynced or drained WRITE executed: READ 2 -> %q", resp)
	}
}

// TestMultiBadCountClosesConnection: an unusable MULTI count makes the
// frame length untrustworthy, so the server answers ERR and closes
// rather than risk executing payload lines as commands.
func TestMultiBadCountClosesConnection(t *testing.T) {
	addr, _ := startServer(t, Config{})
	for _, line := range []string{"MULTI 0", "MULTI 99999", "MULTI zz"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		fmt.Fprintln(conn, line)
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%q: no ERR before close: %v", line, err)
		}
		if !strings.HasPrefix(resp, "ERR MULTI count") {
			t.Errorf("%q -> %q, want ERR MULTI count", line, resp)
		}
		if _, err := r.ReadString('\n'); err == nil {
			t.Errorf("%q: connection stayed open after unusable count", line)
		}
		conn.Close()
	}
}

// TestMultiChunkedByMaxBatch: one MULTI larger than MaxBatch is split
// across scheduler drains so -max-batch bounds per-drain latency.
func TestMultiChunkedByMaxBatch(t *testing.T) {
	addr, srv := startServer(t, Config{MaxBatch: 4})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ops := make([]client.Op, 10)
	for i := range ops {
		ops[i] = client.Op{Addr: int64(i)}
	}
	res, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	st := srv.Stats()
	if st.Batches != 3 || st.Requests != 10 {
		t.Fatalf("10 ops with MaxBatch=4 drained as %d batches / %d requests, want 3 / 10",
			st.Batches, st.Requests)
	}
}

// TestClientBatchCap: the client refuses batches over the protocol
// cap instead of desyncing the server, and the two packages agree on
// the cap.
func TestClientBatchCap(t *testing.T) {
	if client.MaxBatchOps != MaxMultiRequests {
		t.Fatalf("client.MaxBatchOps = %d, server.MaxMultiRequests = %d", client.MaxBatchOps, MaxMultiRequests)
	}
	addr, _ := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Batch(make([]client.Op, client.MaxBatchOps+1)); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestOversizedLineSurfacesError checks the scanner failure path: a
// line over the 1 MiB limit must produce an ERR response, not a
// silent hangup.
func TestOversizedLineSurfacesError(t *testing.T) {
	addr, _ := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := make([]byte, MaxLineBytes+16)
	for i := range big {
		big[i] = 'a'
	}
	big = append(big, '\n')
	if _, err := conn.Write(big); err != nil {
		t.Fatal(err)
	}
	resp, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no ERR before close: %v", err)
	}
	if !strings.HasPrefix(resp, "ERR ") || !strings.Contains(resp, "too long") {
		t.Fatalf("oversized line -> %q, want ERR ... too long", resp)
	}
}

// TestConnLimit checks that connections over MaxConns are refused
// with a protocol-level error.
func TestConnLimit(t *testing.T) {
	addr, srv := startServer(t, Config{MaxConns: 1})
	keep, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer keep.Close()
	// Prove the first connection is registered before dialing the
	// second one.
	fmt.Fprintln(keep, "STATS")
	if _, err := bufio.NewReader(keep).ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	extra, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	resp, err := bufio.NewReader(extra).ReadString('\n')
	if err != nil {
		t.Fatalf("refused connection got no ERR: %v", err)
	}
	if !strings.HasPrefix(resp, "ERR server busy") {
		t.Fatalf("over-limit connect -> %q, want ERR server busy", resp)
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
}

// TestGracefulShutdown: Close while clients are mid-traffic lets
// in-flight requests complete, Serve returns nil, and a later Serve
// refuses.
func TestGracefulShutdown(t *testing.T) {
	store, err := engine.New(engine.Options{
		Blocks: 256, BlockSize: 64, MemoryBytes: 16 << 10, Insecure: true, Seed: "shutdown", Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Config{Engine: store})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1, bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve after Close returned %v, want nil", err)
	}
	if err := srv.Serve(ln); err != ErrClosed {
		t.Fatalf("Serve on closed server returned %v, want ErrClosed", err)
	}
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	// Close is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedSingleConnection checks that one connection pipelining
// requests from many goroutines stays correct and in order.
func TestPipelinedSingleConnection(t *testing.T) {
	addr, _ := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := int64(w)
			payload := bytes.Repeat([]byte{byte(w + 1)}, 64)
			for i := 0; i < 15; i++ {
				if err := c.Write(a, payload); err != nil {
					t.Error(err)
					return
				}
				got, err := c.Read(a)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("worker %d: wrong payload", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStatsLine checks the STATS response: "OK" then one
// series=value token per sample of the registry, carrying the
// server's window counters, the engine's public series and the
// Trusted per-shard ones, each named as /metrics would name it.
func TestStatsLine(t *testing.T) {
	addr, _ := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"horam_engine_ops_total", "horam_server_windows_total", "horam_server_window_requests_total",
		"horam_server_conns_accepted_total", "horam_server_conns_active", `horam_server_window_size_bucket{le="1"}`,
		`horam_server_drain_seconds_count`}
	for i := 0; i < 2; i++ {
		for _, name := range []string{"horam_shard_cycles", "horam_shard_pad_cycles", "horam_shard_quanta",
			"horam_shard_shuffles", "horam_shard_max_cycle_ns", "horam_shard_sim_ns", "horam_shard_drains",
			"horam_shard_drained_requests", "horam_shard_queue_depth", "horam_shard_requests",
			"horam_shard_hits", "horam_shard_misses", "horam_shard_drain_size_count"} {
			want = append(want, shardSeries(name, i))
		}
		want = append(want, `horam_shard_drain_size_bucket{shard="`+strconv.Itoa(i)+`",le="+Inf"}`)
	}
	for _, series := range want {
		if _, ok := kv[series]; !ok {
			t.Errorf("STATS missing %s (got %v)", series, kv)
		}
	}
	if n := statInt(t, kv, "horam_server_window_requests_total"); n != 1 {
		t.Errorf("window requests = %d, want 1", n)
	}
	if n := shardSum(t, kv, "horam_shard_requests", 2); n != 1 {
		t.Errorf("shard scheme requests sum to %d, want 1", n)
	}

	// The raw line: every token splits at its last '=' into a series
	// and a number, and no series repeats.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintln(conn, "STATS")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	tokens := strings.Fields(line)
	if tokens[0] != "OK" || len(tokens)-1 != len(kv) {
		t.Fatalf("STATS line has %d tokens after %q, the reader saw %d series", len(tokens)-1, tokens[0], len(kv))
	}
	for _, tok := range tokens[1:] {
		i := strings.LastIndexByte(tok, '=')
		if i <= 0 {
			t.Fatalf("token %q has no series=value split", tok)
		}
		if _, err := strconv.ParseFloat(tok[i+1:], 64); err != nil {
			t.Errorf("token %q: value is not a number: %v", tok, err)
		}
	}
}

// TestPerShardStatsAggregation: STATS reports one drain-size histogram
// per shard, and the per-shard series reconcile exactly with each
// other, with the server's window counters and with the engine's own
// summary.
func TestPerShardStatsAggregation(t *testing.T) {
	e, err := engine.New(engine.Options{
		Blocks:      512,
		BlockSize:   64,
		MemoryBytes: 16 << 10,
		Insecure:    true,
		Seed:        "per-shard-stats",
		Shards:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	addr, srv := startServer(t, Config{Engine: e})

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two MULTI windows spanning the whole address space, so every
	// shard drains at least once.
	for round := 0; round < 2; round++ {
		ops := make([]client.Op, 32)
		for i := range ops {
			ops[i] = client.Op{Addr: int64(round*256 + i*8)}
		}
		res, err := c.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("round %d op %d: %v", round, i, r.Err)
			}
		}
	}

	kv, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Every logical request drains in exactly one shard: the per-shard
	// request counts must sum to the server's window-level total.
	var shardReqs, shardBatches int64
	for i := 0; i < 4; i++ {
		reqs := statInt(t, kv, shardSeries("horam_shard_drained_requests", i))
		drains := statInt(t, kv, shardSeries("horam_shard_drains", i))
		if reqs == 0 || drains == 0 {
			t.Fatalf("shard %d drained nothing from an address-space-spanning workload", i)
		}
		// The histogram's buckets are cumulative: the +Inf bucket and
		// the count both equal the number of drains.
		inf := statInt(t, kv, `horam_shard_drain_size_bucket{shard="`+strconv.Itoa(i)+`",le="+Inf"}`)
		if count := statInt(t, kv, shardSeries("horam_shard_drain_size_count", i)); inf != drains || count != drains {
			t.Fatalf("shard %d drain-size histogram holds %d (+Inf) / %d (count) drains, drains = %d", i, inf, count, drains)
		}
		if sum := statInt(t, kv, shardSeries("horam_shard_drain_size_sum", i)); sum != reqs {
			t.Fatalf("shard %d drain sizes sum to %d, drained requests = %d", i, sum, reqs)
		}
		shardReqs += reqs
		shardBatches += drains
	}
	if windowReqs := statInt(t, kv, "horam_server_window_requests_total"); shardReqs != windowReqs || windowReqs != srv.Stats().Requests {
		t.Fatalf("per-shard requests sum to %d, STATS window total %d, server drained %d", shardReqs, windowReqs, srv.Stats().Requests)
	}
	// The engine's own summary must agree with the STATS view.
	if sum := e.Stats(); sum.Requests != shardReqs || sum.Batches != shardBatches {
		t.Fatalf("engine summary (requests=%d batches=%d) disagrees with STATS (requests=%d batches=%d)",
			sum.Requests, sum.Batches, shardReqs, shardBatches)
	}
}
