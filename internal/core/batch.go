// Batched request submission. The scheduler's whole design (§4.2: a
// reorder buffer grouping c in-memory hits with one storage load per
// cycle) only pays off when it sees many requests at once, so besides
// Batch the client offers ReadBatch/WriteBatch, which run one whole
// slice of addresses as a single scheduler batch. A Client does not
// merge requests from different callers (concurrent Batch calls
// serialise); that happens in internal/engine's per-shard queue.
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

// ReadBatch reads all addresses as a single scheduler batch and
// returns the block contents in the same order.
func (c *Client) ReadBatch(addrs []int64) ([][]byte, error) {
	reqs := make([]*Request, len(addrs))
	for i, a := range addrs {
		reqs[i] = &Request{Op: OpRead, Addr: a}
	}
	if err := c.Batch(reqs); err != nil {
		return nil, err
	}
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.Result
	}
	return out, nil
}

// WriteBatch writes payloads[i] to addrs[i] as a single scheduler
// batch.
func (c *Client) WriteBatch(addrs []int64, payloads [][]byte) error {
	if len(addrs) != len(payloads) {
		return fmt.Errorf("core: %d addresses but %d payloads", len(addrs), len(payloads))
	}
	reqs := make([]*Request, len(addrs))
	for i, a := range addrs {
		reqs[i] = &Request{Op: OpWrite, Addr: a, Data: payloads[i]}
	}
	return c.Batch(reqs)
}
