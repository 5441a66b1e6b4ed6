package cluster

import (
	"fmt"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
)

// TestRemoteStatsMatchNodeEngines pins the gateway↔node STATS hop: the
// scheme counters a gateway reads back off each node's STATS line
// (remoteShard.Stats, read by series name) equal the counters
// the node's own engine holds — including the two durations, which
// cross the wire as integer nanoseconds (`horam_shard_max_cycle_ns`, `horam_shard_sim_ns`).
func TestRemoteStatsMatchNodeEngines(t *testing.T) {
	opts := gatewayOpts(2)
	var nodes []*engine.Engine
	var p Placement
	for i := 0; i < opts.Shards; i++ {
		e, addr := serveNode(t, opts, i)
		nodes = append(nodes, e)
		p.Nodes = append(p.Nodes, addr)
	}
	gw, err := Connect(opts, p, testDial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })

	// Enough traffic to run every node through a shuffle period, so
	// no counter compares zero with zero.
	for off := 0; off < 400; off += 50 {
		var reqs []*engine.Request
		for i := off; i < off+50; i++ {
			addr := int64(i*37) % opts.Blocks
			if i%2 == 0 {
				data := make([]byte, opts.BlockSize)
				copy(data, fmt.Sprint(i))
				reqs = append(reqs, &engine.Request{Op: engine.OpWrite, Addr: addr, Data: data})
			} else {
				reqs = append(reqs, &engine.Request{Op: engine.OpRead, Addr: addr})
			}
		}
		if err := gw.Batch(reqs); err != nil {
			t.Fatal(err)
		}
	}

	for i, node := range nodes {
		own := node.Stats()
		want := core.Stats{SimulatedTime: own.SimTime}
		want.Requests = own.Requests
		want.Hits = own.Hits
		want.Misses = own.Misses
		want.Shuffles = own.Shuffles
		want.ShuffleQuanta = own.Quanta
		want.Cycles = own.Cycles
		want.MaxCycleTime = own.MaxCycleTime
		if want.Shuffles == 0 || want.Requests == 0 || want.MaxCycleTime == 0 {
			t.Fatalf("node %d counters too idle to compare: %+v", i, own)
		}
		if got := gw.Backend(i).Stats(); got != want {
			t.Errorf("node %d: gateway read %+v off STATS, node engine holds %+v", i, got, want)
		}
	}
}

// serveNode is startNode that also hands back the node's engine, so a
// test can compare what crossed the wire with the node's own state.
func serveNode(t *testing.T, opts engine.Options, index int) (*engine.Engine, string) {
	t.Helper()
	shardOpts, err := engine.ShardConfig(opts, index)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(shardOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: e, ShardControl: true})
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
	return e, ln.Addr().String()
}
