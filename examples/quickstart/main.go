// Quickstart: open an H-ORAM store (a one-shard engine), write some
// blocks, read them back, and print what the scheme did under the hood.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/engine"
)

func main() {
	key := bytes.Repeat([]byte{0x42}, 32)
	store, err := engine.New(engine.Options{
		Blocks:      4096,    // 4 Mi data set of 1 KiB blocks
		MemoryBytes: 1 << 20, // 1 MiB trusted-adjacent cache tier
		Key:         key,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Store a few blocks.
	for i := int64(0); i < 8; i++ {
		block := make([]byte, store.BlockSize())
		copy(block, fmt.Sprintf("hello from block %d", i))
		if err := store.Write(i, block); err != nil {
			log.Fatal(err)
		}
	}

	// Read one back.
	data, err := store.Read(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block 3 says: %q\n", bytes.TrimRight(data, "\x00"))

	// Batched access is the intended mode: the secure scheduler groups
	// cache hits with storage loads so every cycle looks identical on
	// the bus.
	var reqs []*engine.Request
	for i := int64(0); i < 8; i++ {
		reqs = append(reqs, &engine.Request{Addr: i}) // reads
	}
	if err := store.Batch(reqs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch of %d reads completed\n", len(reqs))

	// The one shard is the H-ORAM instance; its counters carry the
	// dummy I/O and the access/shuffle time split.
	st := store.Shard(0).Stats()
	fmt.Printf("requests=%d hits=%d misses=%d dummyIO=%d shuffles=%d\n",
		st.Requests, st.Hits, st.Misses, st.DummyIO, st.Shuffles)
	fmt.Printf("simulated time: %v (access %v, shuffle %v)\n",
		st.SimulatedTime, st.AccessTime, st.ShuffleTime)
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
}
