package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
)

// TestMain lets the test binary stand in for horamd: with
// HORAMD_RUN_MAIN=1 set it runs main() instead of the tests. Every
// scenario below re-executes this binary that way, so it drives real
// daemon processes — real TCP, a real data directory, a real SIGTERM —
// without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("HORAMD_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// geometry is the store every scenario runs: small enough that a few
// hundred requests cross shuffle periods, large enough for 2 shards.
var geometry = []string{"-blocks", "4096", "-blocksize", "64", "-mem", "1048576", "-shards", "2"}

// flags returns geometry followed by extra, never sharing geometry's
// backing array.
func flags(extra ...string) []string {
	return append(append([]string(nil), geometry...), extra...)
}

// daemon is one horamd child process.
type daemon struct {
	cmd    *exec.Cmd
	log    *stderrLog
	addr   string        // bound data address, from the "serving" line
	exited chan struct{} // closed once Wait returns
	err    error         // Wait's result; read only after exited
}

// stderrLog collects a child's stderr and hands the bound address of
// its JSON "serving" line to serving.
type stderrLog struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	scanned int
	serving chan string
}

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	for {
		rest := l.buf.Bytes()[l.scanned:]
		n := bytes.IndexByte(rest, '\n')
		if n < 0 {
			return len(p), nil
		}
		var rec struct{ Msg, Addr string }
		if json.Unmarshal(rest[:n], &rec) == nil && rec.Msg == "serving" {
			select {
			case l.serving <- rec.Addr:
			default:
			}
		}
		l.scanned += n + 1
	}
}

func (l *stderrLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// spawn launches this test binary as horamd with args. The process is
// killed at cleanup if it is still running.
func spawn(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HORAMD_RUN_MAIN=1")
	d := &daemon{cmd: cmd, log: &stderrLog{serving: make(chan string, 1)}, exited: make(chan struct{})}
	cmd.Stderr = d.log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		select {
		case <-d.exited:
		default:
			cmd.Process.Kill()
			<-d.exited
		}
	})
	return d
}

// start launches horamd on an ephemeral loopback port and waits until
// it serves. The bound address is read off the JSON "serving" line, so
// no port is reserved and released for another process to take.
func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := spawn(t, append([]string{"-addr", "127.0.0.1:0", "-log-format", "json", "-stats-every", "0"}, args...)...)
	select {
	case d.addr = <-d.log.serving:
		return d
	case <-d.exited:
		t.Fatalf("horamd %q exited before serving (%v):\n%s", args, d.err, d.log)
	case <-time.After(30 * time.Second):
		t.Fatalf("horamd %q did not serve within 30s:\n%s", args, d.log)
	}
	return nil
}

// stop sends SIGTERM and requires exit status 0. Every caller has
// already had a request served, so the signal lands after main
// installed its handler (Serve runs only after signal.Notify).
func (d *daemon) stop(t *testing.T, name string) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: SIGTERM: %v", name, err)
	}
	select {
	case <-d.exited:
		if d.err != nil {
			t.Fatalf("%s: exit after SIGTERM: %v\n%s", name, d.err, d.log)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not exit within 30s of SIGTERM:\n%s", name, d.log)
	}
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// stats fetches one STATS line as series=value pairs.
func stats(t *testing.T, c *client.Client) map[string]string {
	t.Helper()
	kv, err := c.Stats()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	return kv
}

// statInt reads one series off a STATS map or fails the test.
func statInt(t *testing.T, kv map[string]string, series string) int64 {
	t.Helper()
	n, err := client.StatInt(kv, series)
	if err != nil {
		t.Fatalf("STATS did not parse: %v", err)
	}
	return n
}

// lastWrites is the read-back model both restart tests check against:
// the last value written to each block address or key. A delete
// forgets the key. Safe for concurrent writers.
type lastWrites[K comparable] struct {
	mu sync.Mutex
	m  map[K][]byte
}

func (l *lastWrites[K]) put(k K, v []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = make(map[K][]byte)
	}
	l.m[k] = v
}

func (l *lastWrites[K]) del(k K) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.m, k)
}

// check reads every probe back through read, once every writer has
// finished. A probe with a last write must return exactly that value;
// any other reads as unwritten: the zero block for a block store
// (unwritten non-nil), a MISS for a key (unwritten nil).
func (l *lastWrites[K]) check(t *testing.T, probes []K, unwritten []byte, read func(K) ([]byte, bool, error)) {
	t.Helper()
	for _, k := range probes {
		got, ok, err := read(k)
		if err != nil {
			t.Fatalf("read %v after restart: %v", k, err)
		}
		want, written := l.m[k]
		if !written && unwritten != nil {
			want, written = unwritten, true
		}
		if ok != written || !bytes.Equal(got, want) {
			t.Fatalf("%v after restart = (%q, present %v), want (%q, present %v)", k, got, ok, want, written)
		}
	}
}

// TestPersistSurvivesSIGTERMRestart: a durable daemon that is
// SIGTERMed between MULTI batches and restarted on the same -data-dir
// serves every written block back, and zeros for every other. The
// periodic checkpoint is off, so only save-on-shutdown can carry the
// data across.
func TestPersistSurvivesSIGTERMRestart(t *testing.T) {
	t.Parallel()
	const blocks, blockSize, writes = 4096, 64, 200
	args := flags("-data-dir", t.TempDir(), "-checkpoint", "0")

	d := start(t, args...)
	c := dial(t, d.addr)
	var model lastWrites[int64]
	var ops []client.Op
	for i := 0; i < writes; i++ {
		a := int64(i * (blocks / writes))
		p := make([]byte, blockSize)
		copy(p, fmt.Sprintf("persist-block-%d", a))
		ops = append(ops, client.Op{Write: true, Addr: a, Data: p})
		model.put(a, p)
	}
	for off := 0; off < len(ops); off += 64 {
		results, err := c.Batch(ops[off:min(off+64, len(ops))])
		if err != nil {
			t.Fatalf("write batch at %d: %v", off, err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("write %d: %v", off+i, r.Err)
			}
		}
	}
	c.Close()
	d.stop(t, "horamd")

	d = start(t, args...)
	c = dial(t, d.addr)
	var probes []int64
	for a := int64(0); a < blocks; a += blocks / (writes * 2) {
		probes = append(probes, a)
	}
	model.check(t, probes, make([]byte, blockSize), func(a int64) ([]byte, bool, error) {
		v, err := c.Read(a)
		return v, true, err
	})
	d.stop(t, "restarted horamd")
}

// TestKVTableSurvivesSIGTERMRestart: a KV daemon populated by
// concurrent clients, with every fourth key deleted, is SIGTERMed and
// restarted on the same -data-dir. Live keys read back their exact
// values, deleted keys MISS, the kv_count counter resumed with the
// table, and the restarted daemon keeps taking writes.
func TestKVTableSurvivesSIGTERMRestart(t *testing.T) {
	t.Parallel()
	const keys, clients, kvMaxValue = 96, 4, 256
	args := []string{"-blocks", "4096", "-blocksize", "128", "-mem", "1048576", "-shards", "2",
		"-kv", "-kv-max-value", strconv.Itoa(kvMaxValue), "-data-dir", t.TempDir(), "-checkpoint", "0"}
	key := func(i int) string { return fmt.Sprintf("user-%03d", i) }
	value := func(i int) []byte {
		v := bytes.Repeat([]byte{byte(i)}, 1+(i*7)%kvMaxValue)
		copy(v, fmt.Sprintf("record-%d", i))
		return v
	}

	d := start(t, args...)
	var model lastWrites[string]
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		c := dial(t, d.addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < keys; i += clients {
				if err := c.KSet([]byte(key(i)), value(i)); err != nil {
					errs <- fmt.Errorf("KSET %d: %w", i, err)
					return
				}
				model.put(key(i), value(i))
			}
			for i := w; i < keys; i += clients {
				if i%4 != 0 {
					continue
				}
				existed, err := c.KDel([]byte(key(i)))
				if err != nil || !existed {
					errs <- fmt.Errorf("KDEL %d: existed=%v err=%v", i, existed, err)
					return
				}
				model.del(key(i))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	d.stop(t, "horamd")

	d = start(t, args...)
	c := dial(t, d.addr)
	var probes []string
	for i := 0; i < keys; i++ {
		probes = append(probes, key(i))
	}
	model.check(t, probes, nil, func(k string) ([]byte, bool, error) { return c.KGet([]byte(k)) })
	if live := len(model.m); live != keys-keys/4 {
		t.Fatalf("model holds %d live keys, want %d", live, keys-keys/4)
	}
	if n := statInt(t, stats(t, c), "horam_kv_count"); n != int64(len(model.m)) {
		t.Fatalf("horam_kv_count after restart = %d, want %d live keys", n, len(model.m))
	}
	if err := c.KSet([]byte("post-restart"), []byte("works")); err != nil {
		t.Fatalf("KSET after restart: %v", err)
	}
	if v, ok, err := c.KGet([]byte("post-restart")); err != nil || !ok || string(v) != "works" {
		t.Fatalf("KGET after restart = (%q, %v, %v)", v, ok, err)
	}
	d.stop(t, "restarted horamd")
}

// nodeCycles matches the per-node relabelled cycle counters a gateway
// injects when it aggregates each node's METRICS exposition (every
// node is a 1-shard engine, hence shard="0").
var nodeCycles = regexp.MustCompile(`(?m)^horam_shard_cycles\{node="(\d+)",shard="0"\} (-?\d+)$`)

// scrapeCycles fetches the gateway's /metrics (retrying while its
// listener comes up) and returns the exposition and the per-node cycle
// counts in it.
func scrapeCycles(t *testing.T, addr string) (string, map[string]int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	resp, err := http.Get("http://" + addr + "/metrics")
	for err != nil && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		resp, err = http.Get("http://" + addr + "/metrics")
	}
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s, %v", resp.Status, err)
	}
	cycles := map[string]int64{}
	for _, m := range nodeCycles.FindAllStringSubmatch(string(body), -1) {
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatalf("bad cycle sample %q: %v", m[0], err)
		}
		cycles[m[1]] = n
	}
	return string(body), cycles
}

// TestClusterNodeKillIsAttributed: two -shard-serve nodes behind a KV
// gateway serve exact read-back while /metrics aggregates both nodes,
// and show leveled per-node cycle counts at quiescence. Killing node 1
// mid-traffic never wedges the gateway: later ops fail with errors
// naming shard 1, STATS still answers in full, and the survivors shut
// down cleanly.
func TestClusterNodeKillIsAttributed(t *testing.T) {
	t.Parallel()
	const keys = 40
	key := func(i int) []byte { return []byte(fmt.Sprintf("cluster-key-%03d", i%keys)) }
	value := func(i int) []byte { return []byte(fmt.Sprintf("cluster-value-%03d", i%keys)) }

	node0 := start(t, flags("-shard-serve", "-shard-index", "0")...)
	node1 := start(t, flags("-shard-serve", "-shard-index", "1")...)
	// horamd does not log the metrics listener's bound address, so
	// this is the one port still reserved up front.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	metricsAddr := ln.Addr().String()
	ln.Close()
	// Values are 17 bytes, so a one-block value cap keeps each KV op at
	// a handful of blocks instead of the default cap's 64-block extent.
	gw := start(t, flags("-gateway", "-nodes", node0.addr+","+node1.addr, "-kv", "-kv-max-value", "64",
		"-metrics-addr", metricsAddr)...)
	c := dial(t, gw.addr)

	// Healthy cluster: KV traffic scatter/gathers across both nodes and
	// reads back exactly, while a /metrics scrape aggregates both
	// nodes' expositions mid-traffic.
	for i := 0; i < keys; i++ {
		if err := c.KSet(key(i), value(i)); err != nil {
			t.Fatalf("KSET %d on healthy cluster: %v", i, err)
		}
	}
	readBack := make(chan error, 1)
	go func() {
		for i := 0; i < keys; i++ {
			got, ok, err := c.KGet(key(i))
			if err != nil || !ok || !bytes.Equal(got, value(i)) {
				readBack <- fmt.Errorf("KGET %d on healthy cluster = (%q, %v, %v), want %q", i, got, ok, err, value(i))
				return
			}
		}
		readBack <- nil
	}()
	text, mid := scrapeCycles(t, metricsAddr)
	if !strings.Contains(text, "horam_cluster_nodes 2") {
		t.Fatalf("mid-traffic scrape is missing horam_cluster_nodes 2:\n%s", text)
	}
	if len(mid) != 2 {
		t.Fatalf("mid-traffic scrape carries cycle counters for nodes %v, want 2:\n%s", mid, text)
	}
	if err := <-readBack; err != nil {
		t.Fatal(err)
	}

	// At quiescence the leveling invariant shows through the scrape:
	// every node has run the same, positive number of cycles.
	if _, quiet := scrapeCycles(t, metricsAddr); len(quiet) != 2 || quiet["0"] != quiet["1"] || quiet["0"] <= 0 {
		t.Fatalf("per-node cycle counters at quiescence = %v, want two equal positive counts", quiet)
	}

	// Kill node 1 while KGETs are in flight: the traffic must still
	// finish, however many of its ops fail.
	trafficStarted, trafficDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(trafficDone)
		for i := 0; i < 200; i++ {
			c.KGet(key(i))
			if i == 0 {
				close(trafficStarted)
			}
		}
	}()
	<-trafficStarted
	if err := node1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM node 1: %v", err)
	}
	select {
	case <-trafficDone:
	case <-time.After(60 * time.Second):
		t.Fatal("gateway wedged: in-flight traffic did not finish within 60s of the node kill")
	}

	// Later ops return promptly, and their errors name the dead shard.
	var errs, named int
	opsDone := make(chan struct{})
	go func() {
		defer close(opsDone)
		for i := 0; i < 50; i++ {
			if _, _, err := c.KGet(key(i)); err != nil {
				errs++
				if strings.Contains(err.Error(), "shard 1") {
					named++
				}
			}
		}
	}()
	select {
	case <-opsDone:
	case <-time.After(60 * time.Second):
		t.Fatal("gateway wedged: post-kill ops did not finish within 60s")
	}
	if errs == 0 {
		t.Fatal("no op failed after killing node 1; the gateway served as if the cluster were whole")
	}
	if named == 0 {
		t.Fatalf("%d ops failed but no error named shard 1; attribution lost the node identity", errs)
	}
	t.Logf("post-kill: %d/50 ops failed, %d named shard 1", errs, named)

	// STATS still answers, and parses in full, after the kill: both
	// shards' series are there, the dead node's read as its fallbacks.
	kv := stats(t, c)
	for _, series := range []string{`horam_shard_cycles{shard="0"}`, `horam_shard_requests{shard="0"}`,
		`horam_shard_cycles{shard="1"}`, `horam_shard_requests{shard="1"}`} {
		statInt(t, kv, series)
	}
	if _, ok := kv[`horam_shard_cycles{shard="2"}`]; ok {
		t.Fatal("STATS after node kill reports a third shard")
	}
	c.Close()
	gw.stop(t, "gateway")
	node0.stop(t, "node 0")
}

// TestRefusalMatrix: each conflicting or unservable configuration exits
// before serving, with the status and a log line that names the
// conflict.
func TestRefusalMatrix(t *testing.T) {
	t.Parallel()
	// A data directory checkpointed with -blocks 4096, for the restart
	// that asks for a different geometry.
	dir := t.TempDir()
	d := start(t, flags("-data-dir", dir)...)
	if err := dial(t, d.addr).Write(1, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	d.stop(t, "horamd")

	cases := []struct {
		name string
		args []string
		code int
		want string // a regexp; . never crosses a line
	}{
		{"shard-serve with gateway", []string{"-shard-serve", "-gateway", "-nodes", "127.0.0.1:1,127.0.0.1:2"}, 1, "-shard-serve and -gateway are exclusive"},
		{"shard-serve with kv", []string{"-shard-serve", "-kv"}, 1, "-kv on a shard node"},
		{"gateway with data-dir", []string{"-gateway", "-nodes", "127.0.0.1:1", "-data-dir", t.TempDir()}, 1, "-gateway with -data-dir"},
		{"gateway without nodes", []string{"-gateway", "-nodes", ""}, 1, "empty node list"},
		{"non-hex key", []string{"-key", "not-hex"}, 1, "bad -key"},
		{"bad log format", []string{"-log-format", "yaml"}, 2, "bad -log-format"},
		{"kv value over the line limit", flags("-kv", "-kv-max-value", "600000"), 1, "-kv-max-value cannot be served"},
		{"restart with different blocks", flags("-data-dir", dir, "-blocks", "2048"), 1, "restore failed"},
		{"restart on a version-1 data dir", flags("-data-dir", versionOne(t, dir)), 1, "restore failed.*snapshot: unsupported container version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			d := spawn(t, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
			select {
			case <-d.exited:
			case <-time.After(30 * time.Second):
				t.Fatalf("still running 30s after start; want a refusal:\n%s", d.log)
			}
			log := d.log.String()
			if code := d.cmd.ProcessState.ExitCode(); code != tc.code {
				t.Errorf("exit status %d, want %d", code, tc.code)
			}
			if !regexp.MustCompile(tc.want).MatchString(log) {
				t.Errorf("no log line matches the conflict %q", tc.want)
			}
			if strings.Contains(log, "msg=serving") || strings.Contains(log, "initialised fresh durable store") {
				t.Errorf("started instead of refusing")
			}
			if t.Failed() {
				t.Logf("log:\n%s", log)
			}
		})
	}
}

// versionOne copies the data directory src and rewrites every snapshot
// container in the copy as a version-1 build would have written it
// (the version field set to 1, the trailing SHA-256 recomputed), so a
// restore sees a well-formed image from before records became AES-GCM.
func versionOne(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.HasPrefix(raw, []byte("HORAMSNP")) && len(raw) > 12+sha256.Size {
			binary.BigEndian.PutUint32(raw[8:12], 1)
			body := raw[:len(raw)-sha256.Size]
			sum := sha256.Sum256(body)
			copy(raw[len(body):], sum[:])
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o700); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o600)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
