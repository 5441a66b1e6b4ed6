// multiuser demonstrates §5.3.2: several users share one H-ORAM. Their
// request streams interleave in the scheduler's reorder buffer, so one
// storage load plus c in-memory reads per cycle serves whichever users
// have work — the group strategy absorbs multi-tenant traffic without
// extra cost per new user, and no user's access pattern is visible on
// the storage bus.
//
//	go run ./examples/multiuser
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/engine"
	"repro/internal/workload"
)

const (
	users      = 4
	perUser    = 1024 // blocks per user region
	reqPerUser = 256  // users*reqPerUser stays within one engine drain (1024)
)

func main() {
	store, err := engine.New(engine.Options{
		Blocks:      users * perUser,
		BlockSize:   512,
		MemoryBytes: 512 << 10,
		Key:         bytes.Repeat([]byte{9}, 32),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Each user gets a private address region and an 80/20 workload
	// over it.
	rng := blockcipher.NewRNGFromString("multiuser-example")
	gens := make([]workload.Generator, users)
	for u := 0; u < users; u++ {
		g, err := workload.NewHotspot(perUser, 0.8, 0.05, rng.Fork(fmt.Sprint("user", u)))
		if err != nil {
			log.Fatal(err)
		}
		gens[u] = g
	}

	// Interleave the streams round-robin into one batch — the shared
	// ROB is exactly how the paper's scheduler absorbs multiple users.
	var reqs []*engine.Request
	for i := 0; i < reqPerUser; i++ {
		for u := 0; u < users; u++ {
			addr := int64(u*perUser) + gens[u].Next()
			reqs = append(reqs, &engine.Request{Addr: addr, User: u})
		}
	}
	if err := store.Batch(reqs); err != nil {
		log.Fatal(err)
	}

	// Per-user accounting.
	served := make([]int, users)
	for _, r := range reqs {
		served[r.User]++
	}
	st := store.Shard(0).Stats()
	fmt.Printf("%d users sharing one H-ORAM, %d total requests\n", users, len(reqs))
	for u, n := range served {
		fmt.Printf("  user %d: %d requests served\n", u, n)
	}
	fmt.Printf("cycles=%d misses=%d hits=%d dummyIO=%d shuffles=%d\n",
		st.Cycles, st.Misses, st.Hits, st.DummyIO, st.Shuffles)
	fmt.Printf("simulated time %v -> %v per request across all users\n",
		st.SimulatedTime, st.SimulatedTime/time.Duration(len(reqs)))
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
}
