// Package cluster is the control plane that assembles one gateway
// engine over many horamd -shard-serve nodes. It owns the placement
// (which node serves which shard index), the startup health probes,
// and the identity validation: before any traffic is served through a
// node, its PEEK manifest echo is checked field-by-field against the
// geometry the gateway derives from its own options
// (engine.ShardConfig), so a node launched with drifted blocks,
// options, seed or shard identity is refused — the distributed
// equivalent of the restore-time option-mismatch refusal every
// durable layer in this repository already performs.
//
// What this package deliberately does NOT do: shard migration (moving
// a shard's snapshot between nodes), failover (re-homing a shard when
// its node dies), or membership changes. The placement is fixed at
// gateway startup; a dead node surfaces as per-task ERRs on the
// requests that touch it, never as silent re-routing.
package cluster

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/engine"
)

// Placement maps shard index to node address: Nodes[i] serves shard i
// of a len(Nodes)-shard engine.
type Placement struct {
	Nodes []string
}

// ParsePlacement parses a comma-separated node list ("host:port,
// host:port,..."), index order = shard order. Commas, not colons,
// separate nodes: the addresses themselves contain colons.
func ParsePlacement(s string) (Placement, error) {
	if strings.TrimSpace(s) == "" {
		return Placement{}, errors.New("cluster: empty node list")
	}
	var p Placement
	seen := make(map[string]int)
	for _, f := range strings.Split(s, ",") {
		addr := strings.TrimSpace(f)
		if addr == "" {
			return Placement{}, fmt.Errorf("cluster: empty node address in %q", s)
		}
		if prev, dup := seen[addr]; dup {
			return Placement{}, fmt.Errorf("cluster: node %s listed for both shard %d and shard %d; one process cannot serve two shards of one placement", addr, prev, len(p.Nodes))
		}
		seen[addr] = len(p.Nodes)
		p.Nodes = append(p.Nodes, addr)
	}
	return p, nil
}

// Connect dials every node of the placement, validates each node's
// identity and geometry against the gateway options, and assembles
// the gateway engine over the resulting remote shards. opts describe
// the GLOBAL store exactly as a single-process engine.New call would;
// opts.Shards must equal len(p.Nodes) (0 adopts the placement size)
// and opts.DataDir must be empty — nodes own their durability.
//
// Every node is probed with bounded retry/backoff (dial.Attempts ×
// dial.Backoff, defaulting to client's dial defaults), so a gateway
// racing its nodes' startup converges instead of failing the first
// probe. Any validation failure closes every connection already made
// and reports which node was refused and why.
func Connect(opts engine.Options, p Placement, dial client.DialConfig) (*engine.Engine, error) {
	if len(p.Nodes) == 0 {
		return nil, errors.New("cluster: empty placement")
	}
	if opts.Shards == 0 {
		opts.Shards = len(p.Nodes)
	}
	if opts.Shards != len(p.Nodes) {
		return nil, fmt.Errorf("cluster: options declare %d shards but the placement has %d nodes", opts.Shards, len(p.Nodes))
	}
	if opts.DataDir != "" {
		return nil, errors.New("cluster: gateway options must not set DataDir; shard nodes own their durable directories")
	}
	backends := make([]engine.ShardBackend, len(p.Nodes))
	unwind := func(upTo int) {
		for i := 0; i < upTo; i++ {
			backends[i].Close() //horam:errok unwinding a failed cluster assembly; the refusal error is the one to surface
		}
	}
	for i, addr := range p.Nodes {
		expected, err := engine.ShardConfig(opts, i)
		if err != nil {
			return nil, err
		}
		c, echo, err := dialProbe(addr, dial)
		if err != nil {
			unwind(i)
			return nil, fmt.Errorf("cluster: node %d (%s): %w", i, addr, err)
		}
		if err := checkEcho(expected, echo); err != nil {
			c.Close() //horam:errok refusing a drifted node; the mismatch error is the one to surface
			unwind(i)
			return nil, fmt.Errorf("cluster: node %d (%s): %w", i, addr, err)
		}
		backends[i] = &remoteShard{index: i, addr: addr, c: c, blocks: expected.Blocks}
	}
	e, err := engine.NewWithBackends(opts, backends)
	if err != nil {
		unwind(len(backends))
		return nil, err
	}
	return e, nil
}

// dialProbe establishes a validated control connection: dial, then
// PEEK. Both halves share one bounded attempt budget — a node that
// accepts TCP but cannot answer PEEK yet (or refuses the dial
// outright) is retried with doubling backoff until the budget is
// spent, and the last error is reported.
func dialProbe(addr string, cfg client.DialConfig) (*client.Client, map[string]string, error) {
	attempts := cfg.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	backoff := cfg.Backoff
	if backoff <= 0 {
		backoff = client.DefaultDialBackoff
	}
	single := cfg
	single.Attempts = 1
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		c, err := client.DialWithConfig(addr, single)
		if err != nil {
			lastErr = err
			continue
		}
		echo, err := c.Peek()
		if err != nil {
			c.Close() //horam:errok abandoning a failed probe; the probe error is the one to surface
			lastErr = fmt.Errorf("health probe (PEEK): %w", err)
			continue
		}
		return c, echo, nil
	}
	return nil, nil, lastErr
}

// checkEcho validates a node's PEEK echo against the gateway-derived
// expectation, reusing the uniform restore-refusal shape. Every field
// the node's manifest echoes is compared — geometry, option flags,
// cluster identity, seed — except the epoch/checkpoint counters,
// whose CROSS-NODE agreement engine assembly checks separately (a
// node is allowed to have restored, as long as all of them restored
// to the same cut).
func checkEcho(expected engine.Options, echo map[string]string) error {
	return config.CheckEcho("placement mismatch", []config.Field{
		{Name: "blocks", Got: echo["blocks"], Want: fmt.Sprintf("%d", expected.Blocks)},
		{Name: "blocksize", Got: echo["blocksize"], Want: fmt.Sprintf("%d", expected.BlockSize)},
		{Name: "shards", Got: echo["shards"], Want: fmt.Sprintf("%d", expected.Shards)},
		{Name: "cshards", Got: echo["cshards"], Want: fmt.Sprintf("%d", expected.ClusterShards)},
		{Name: "shard", Got: echo["shard"], Want: fmt.Sprintf("%d", expected.ShardIndex)},
		{Name: "memory", Got: echo["memory"], Want: fmt.Sprintf("%d", expected.MemoryBytes)},
		{Name: "shuffleratio", Got: echo["shuffleratio"], Want: fmt.Sprintf("%g", expected.ShuffleRatio)},
		{Name: "constanttime", Got: echo["constanttime"], Want: fmt.Sprintf("%t", expected.ConstantTime)},
		{Name: "insecure", Got: echo["insecure"], Want: fmt.Sprintf("%t", expected.Insecure)},
		{Name: "seed", Got: echo["seed"], Want: hex.EncodeToString([]byte(expected.Seed))},
	})
}
