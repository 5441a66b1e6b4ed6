// remotestore demonstrates the paper's client/server deployment
// (Figures 2-3 and 5-2): the H-ORAM and its shuffle run inside horamd
// on the "server", and this client talks to it over TCP, so the costly
// reshuffle never crosses the network.
//
// The example spawns an in-process horamd-equivalent listener (the
// same internal/server package the daemon uses) on a random port,
// then drives it with the typed client — run it with no arguments, or
// point it at a separately launched horamd with -addr.
//
//	go run ./examples/remotestore
//	go run ./cmd/horamd &  then  go run ./examples/remotestore -addr 127.0.0.1:7312
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"net"
	"strings"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "", "address of a running horamd (empty: start one in-process)")
	flag.Parse()

	target := *addr
	if target == "" {
		var err error
		target, err = startInProcessServer()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("started in-process block server on %s\n", target)
	}

	c, err := client.Dial(target)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close() //horam:errok example teardown; the demo output is already printed

	// Store a document, read it back.
	doc := "the quick brown fox jumps over the lazy dog"
	block := make([]byte, 1024)
	copy(block, doc)
	if err := c.Write(7, block); err != nil {
		log.Fatal(err)
	}
	fmt.Println("WRITE 7 -> OK")
	data, err := c.Read(7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("READ 7  -> %q\n", bytes.TrimRight(data, "\x00"))

	// MULTI: ten reads of the same block run as ONE scheduler batch on
	// the server — the ORAM hides the repetition from anyone watching
	// its storage backend, and the batch amortises the storage loads.
	ops := make([]client.Op, 10)
	for i := range ops {
		ops[i] = client.Op{Addr: 7}
	}
	res, err := c.Batch(ops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MULTI %d -> %d results, all equal: %v\n", len(ops), len(res),
		bytes.Equal(res[0].Data, res[len(res)-1].Data))

	kv, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("STATS   -> requests=%d hits=%d misses=%d windows=%d window_requests=%d\n",
		total(kv, "horam_shard_requests"), total(kv, "horam_shard_hits"), total(kv, "horam_shard_misses"),
		total(kv, "horam_server_windows_total"), total(kv, "horam_server_window_requests_total"))
}

// total sums one metric of a STATS line over every series it has (one
// per shard for the horam_shard_* metrics).
func total(kv map[string]string, name string) int64 {
	var sum int64
	for series := range kv {
		if series == name || strings.HasPrefix(series, name+"{") {
			n, err := client.StatInt(kv, series)
			if err != nil {
				log.Fatal(err)
			}
			sum += n
		}
	}
	return sum
}

// startInProcessServer runs the real serving stack (internal/server
// over internal/core) on a random loopback port.
func startInProcessServer() (string, error) {
	store, err := engine.New(engine.Options{
		Blocks:      8192,
		BlockSize:   1024,
		MemoryBytes: 1 << 20,
		Key:         bytes.Repeat([]byte{0x2a}, 32),
		Shards:      2,
	})
	if err != nil {
		return "", err
	}
	srv, err := server.New(server.Config{Engine: store})
	if err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
