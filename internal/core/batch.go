// Batched request submission. The scheduler's whole design (§4.2: a
// reorder buffer grouping c in-memory hits with one storage load per
// cycle) only pays off when it sees many requests at once, so Batch
// runs one whole slice of requests as a single scheduler batch. A
// Client does not merge requests from different callers (concurrent
// Batch calls serialise); that happens in internal/engine's per-shard
// queue.
package core

import "fmt"

// validate rejects malformed requests up front so one bad request
// cannot leave a half-submitted batch in the scheduler's ROB.
func (c *Client) validate(r *Request) error {
	if r == nil {
		return fmt.Errorf("core: nil request")
	}
	if r.Addr < 0 || r.Addr >= c.blocks {
		return fmt.Errorf("core: address %d out of range [0,%d)", r.Addr, c.blocks)
	}
	if r.Op == OpWrite && len(r.Data) != c.blockSize {
		return fmt.Errorf("core: write payload %d bytes, want %d", len(r.Data), c.blockSize)
	}
	return nil
}
