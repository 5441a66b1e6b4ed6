// Command clustersmoke is the end-to-end cluster smoke test CI runs:
// it starts two horamd -shard-serve nodes and one -gateway over them,
// drives KV traffic through the gateway, SIGTERMs one shard node
// mid-traffic, and asserts the gateway surfaces per-task ERR lines
// naming the dead shard instead of wedging — then that the surviving
// processes still answer and shut down cleanly.
//
//	go build -o /tmp/horamd ./cmd/horamd
//	go run ./scripts/clustersmoke -horamd /tmp/horamd
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/scripts/daemon"
)

const (
	blocks    = 4096
	blockSize = 64
	memBytes  = 1 << 20
	shards    = 2
	keys      = 40
)

func main() {
	horamd := flag.String("horamd", "", "path to the horamd binary (required)")
	flag.Parse()
	if *horamd == "" {
		log.Fatal("clustersmoke: -horamd is required")
	}
	if err := run(*horamd); err != nil {
		log.Fatalf("clustersmoke: FAIL: %v", err)
	}
	fmt.Println("clustersmoke: PASS")
}

// globalFlags is the geometry every process of the cluster — nodes
// and gateway alike — must agree on.
func globalFlags(addr string) []string {
	return []string{
		"-addr", addr,
		"-blocks", fmt.Sprint(blocks),
		"-blocksize", fmt.Sprint(blockSize),
		"-mem", fmt.Sprint(memBytes),
		"-shards", fmt.Sprint(shards),
		"-stats-every", "0",
	}
}

func key(i int) []byte   { return []byte(fmt.Sprintf("cluster-key-%03d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("cluster-value-%03d", i)) }

// scrapeMetrics fetches the gateway's aggregated /metrics exposition.
func scrapeMetrics(addr string) (string, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close() //horam:errok response body close on a read-to-EOF GET
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/metrics: %s", resp.Status)
	}
	return string(b), nil
}

// nodeCycles matches the per-node relabelled cycle counters the
// gateway injects when it aggregates each node's METRICS exposition
// (every node is a 1-shard engine, hence shard="0").
var nodeCycles = regexp.MustCompile(`(?m)^horam_shard_cycles\{node="(\d+)",shard="0"\} (-?\d+)$`)

func perNodeCycles(text string) (map[string]int64, error) {
	out := map[string]int64{}
	for _, m := range nodeCycles.FindAllStringSubmatch(text, -1) {
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad cycle sample %q: %w", m[0], err)
		}
		out[m[1]] = n
	}
	return out, nil
}

func run(bin string) error {
	n0Addr, err := daemon.FreePort()
	if err != nil {
		return err
	}
	n1Addr, err := daemon.FreePort()
	if err != nil {
		return err
	}
	gwAddr, err := daemon.FreePort()
	if err != nil {
		return err
	}
	metricsAddr, err := daemon.FreePort()
	if err != nil {
		return err
	}

	// Two shard nodes, then the gateway over them (its startup probes
	// retry, so racing the nodes' listen is fine — but they are already
	// up here anyway).
	node0, err := daemon.Start(bin, append(globalFlags(n0Addr), "-shard-serve", "-shard-index", "0")...)
	if err != nil {
		return fmt.Errorf("node 0: %w", err)
	}
	defer node0.Process.Kill()
	node1, err := daemon.Start(bin, append(globalFlags(n1Addr), "-shard-serve", "-shard-index", "1")...)
	if err != nil {
		return fmt.Errorf("node 1: %w", err)
	}
	defer node1.Process.Kill()
	gw, err := daemon.Start(bin, append(globalFlags(gwAddr),
		"-gateway", "-nodes", n0Addr+","+n1Addr, "-kv",
		"-metrics-addr", metricsAddr)...)
	if err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	defer gw.Process.Kill()

	c, err := client.Dial(gwAddr)
	if err != nil {
		return err
	}
	defer c.Close() //horam:errok smoke-test teardown; the assertions already ran

	// Phase 1: healthy cluster. KV traffic scatter/gathers across both
	// nodes and reads back exactly.
	for i := 0; i < keys; i++ {
		if err := c.KSet(key(i), value(i)); err != nil {
			return fmt.Errorf("KSET %d on healthy cluster: %w", i, err)
		}
	}
	// The read-back loop runs concurrently with a /metrics scrape: the
	// gateway must aggregate every node's exposition (METRICS verb,
	// relabelled node="i") while data traffic is in flight.
	verifyErr := make(chan error, 1)
	go func() {
		for i := 0; i < keys; i++ {
			got, ok, err := c.KGet(key(i))
			if err != nil {
				verifyErr <- fmt.Errorf("KGET %d on healthy cluster: %w", i, err)
				return
			}
			if !ok || !bytes.Equal(got, value(i)) {
				verifyErr <- fmt.Errorf("KGET %d on healthy cluster = (%q, %v), want %q", i, got, ok, value(i))
				return
			}
		}
		verifyErr <- nil
	}()
	midText, err := scrapeMetrics(metricsAddr)
	if err != nil {
		return fmt.Errorf("mid-traffic /metrics scrape: %w", err)
	}
	if !strings.Contains(midText, "horam_cluster_nodes 2") {
		return fmt.Errorf("mid-traffic scrape is missing horam_cluster_nodes 2:\n%s", midText)
	}
	mid, err := perNodeCycles(midText)
	if err != nil {
		return err
	}
	if len(mid) != shards {
		return fmt.Errorf("mid-traffic scrape carries cycle counters for %d nodes, want %d:\n%s", len(mid), shards, midText)
	}
	if err := <-verifyErr; err != nil {
		return err
	}
	log.Printf("clustersmoke: healthy cluster served %d KSET + %d KGET; mid-traffic scrape saw node cycles %v", keys, keys, mid)

	// At quiescence the leveling invariant must be visible through the
	// scrape: every node reports the same cycle count.
	quietText, err := scrapeMetrics(metricsAddr)
	if err != nil {
		return fmt.Errorf("quiescent /metrics scrape: %w", err)
	}
	quiet, err := perNodeCycles(quietText)
	if err != nil {
		return err
	}
	if len(quiet) != shards {
		return fmt.Errorf("quiescent scrape carries cycle counters for %d nodes, want %d", len(quiet), shards)
	}
	if quiet["0"] != quiet["1"] || quiet["0"] <= 0 {
		return fmt.Errorf("per-node cycle counters unequal at quiescence: %v (volume leveling must equalise them)", quiet)
	}
	log.Printf("clustersmoke: quiescent scrape: per-node cycles leveled at %d", quiet["0"])

	// Phase 2: kill shard node 1 mid-traffic. Concurrent KGETs are in
	// flight while the SIGTERM lands, so some batches tear mid-drain.
	trafficDone := make(chan struct{})
	var inFlightErrs atomic.Int64
	go func() {
		defer close(trafficDone)
		for i := 0; i < 200; i++ {
			if _, _, err := c.KGet(key(i % keys)); err != nil {
				inFlightErrs.Add(1)
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the traffic loop get going
	if err := node1.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM node 1: %w", err)
	}
	go node1.Wait() //horam:errok reaping the killed node; its exit status is not under test
	select {
	case <-trafficDone:
	case <-time.After(60 * time.Second):
		return fmt.Errorf("gateway wedged: in-flight traffic did not complete within 60s of the node kill")
	}

	// Phase 3: the gateway must stay responsive and surface per-task
	// ERRs that NAME the dead shard — not hang, not crash, not pretend.
	// Every op must return promptly; ops whose blocks (or leveling
	// pass) touch the dead shard report it.
	type outcome struct {
		errs  int
		named int
	}
	res := make(chan outcome, 1)
	go func() {
		var o outcome
		for i := 0; i < 50; i++ {
			_, _, err := c.KGet(key(i % keys))
			if err != nil {
				o.errs++
				if strings.Contains(err.Error(), "shard 1") {
					o.named++
				}
			}
		}
		res <- o
	}()
	var o outcome
	select {
	case o = <-res:
	case <-time.After(60 * time.Second):
		return fmt.Errorf("gateway wedged: post-kill ops did not complete within 60s")
	}
	if o.errs == 0 {
		return fmt.Errorf("no ERR surfaced after killing shard node 1; the gateway is serving as if the cluster were whole")
	}
	if o.named == 0 {
		return fmt.Errorf("ERRs surfaced but none named the dead shard; error attribution lost the node identity")
	}
	log.Printf("clustersmoke: post-kill: %d/50 ops returned ERR, %d named shard 1 (in-flight errors during kill: %d)",
		o.errs, o.named, inFlightErrs.Load())

	// STATS must still answer — and parse — after the node kill: the
	// control connection and the serving loop survived, and the line
	// keeps its full typed shape.
	kvMap, err := c.Stats()
	if err != nil {
		return fmt.Errorf("STATS after node kill: %w", err)
	}
	st, err := client.ParseStats(kvMap)
	if err != nil {
		return fmt.Errorf("STATS after node kill did not parse: %w", err)
	}
	if st.Shards != shards || len(st.PerShard) != shards {
		return fmt.Errorf("STATS after node kill reports %d shards (%d groups), want %d", st.Shards, len(st.PerShard), shards)
	}

	// Phase 4: clean teardown of the survivors. The gateway joins the
	// dead node's close error into its log but must still exit 0.
	if err := daemon.Stop("gateway", gw); err != nil {
		return err
	}
	if err := daemon.Stop("node 0", node0); err != nil {
		return err
	}
	return nil
}
