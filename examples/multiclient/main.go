// multiclient demonstrates the serving layer under real concurrency:
// N independent TCP clients hammer one horamd-style server at once,
// and requests that arrive while a shard's scheduler is busy leave
// together as its next drain — one storage load amortised across c
// in-memory hits (§4.2) even though no single client ever batches
// anything itself. The per-shard drain counts printed at the end, read
// off the server's STATS line, are the proof.
//
//	go run ./examples/multiclient
//	go run ./examples/multiclient -clients 16 -ops 100
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
)

func main() {
	clients := flag.Int("clients", 8, "number of concurrent TCP clients")
	ops := flag.Int("ops", 50, "requests per client")
	shards := flag.Int("shards", 2, "H-ORAM shard count")
	flag.Parse()

	store, err := engine.New(engine.Options{
		Blocks:      16384,
		BlockSize:   512,
		MemoryBytes: 2 << 20,
		Key:         bytes.Repeat([]byte{0x17}, 32),
		Shards:      *shards,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: store})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()
	fmt.Printf("server on %s, %d clients x %d ops\n", addr, *clients, *ops)

	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < *clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close() //horam:errok example teardown; the demo output is already printed
			region := int64(1024)
			base := int64(id) * region
			payload := bytes.Repeat([]byte{byte(id + 1)}, 512)
			for i := 0; i < *ops; i++ {
				a := base + int64(i)%region
				if i%2 == 0 {
					if err := c.Write(a, payload); err != nil {
						log.Fatalf("client %d: %v", id, err)
					}
				} else if _, err := c.Read(a); err != nil {
					log.Fatalf("client %d: %v", id, err)
				}
			}
		}(id)
	}
	wg.Wait()
	wall := time.Since(start)

	requests := *clients * *ops
	fmt.Printf("%d requests in %v wall time (%.0f req/s)\n",
		requests, wall.Round(time.Millisecond), float64(requests)/wall.Seconds())
	c, err := client.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	kv, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	c.Close() //horam:errok example teardown; the STATS line is already read
	drains, reqs := total(kv, "horam_shard_drains"), total(kv, "horam_shard_drained_requests")
	fmt.Printf("scheduler drains: %d, mean drain size %.2f\n", drains, float64(reqs)/float64(drains))
	fmt.Printf("engine: shards=%d hits=%d misses=%d shuffles=%d\n",
		*shards, total(kv, "horam_shard_hits"), total(kv, "horam_shard_misses"), total(kv, "horam_shard_shuffles"))
	for i := 0; i < *shards; i++ {
		shard := `shard="` + strconv.Itoa(i) + `"`
		drains := stat(kv, "horam_shard_drains{"+shard+"}")
		fmt.Printf("  shard %d: drains=%d reqs=%d, %d of them carrying more than one request\n", i, drains,
			stat(kv, "horam_shard_drained_requests{"+shard+"}"),
			drains-stat(kv, "horam_shard_drain_size_bucket{"+shard+`,le="1"}`))
	}
	srv.Close()   //horam:errok example teardown; the demo output is already printed
	store.Close() //horam:errok example teardown; the demo output is already printed
}

// stat reads one series off a STATS line.
func stat(kv map[string]string, series string) int64 {
	n, err := client.StatInt(kv, series)
	if err != nil {
		log.Fatal(err)
	}
	return n
}

// total sums one metric of a STATS line over its per-shard series.
func total(kv map[string]string, name string) int64 {
	var sum int64
	for series := range kv {
		if strings.HasPrefix(series, name+"{") {
			sum += stat(kv, series)
		}
	}
	return sum
}
