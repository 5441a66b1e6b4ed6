package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

func TestReadWriteBatch(t *testing.T) {
	c := open(t)
	var writes, reads []*Request
	for a := int64(0); a < 24; a++ {
		writes = append(writes, &Request{Op: OpWrite, Addr: a, Data: bytes.Repeat([]byte{byte(a + 1)}, 64)})
		reads = append(reads, &Request{Op: OpRead, Addr: a})
	}
	if err := c.Batch(writes); err != nil {
		t.Fatal(err)
	}
	if err := c.Batch(reads); err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		if !bytes.Equal(r.Result, writes[i].Data) {
			t.Fatalf("read %d of the batch mismatch", i)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	c := open(t)
	if err := c.Batch([]*Request{{Addr: 0}, {Addr: 999}}); err == nil {
		t.Error("Batch accepted out-of-range address")
	}
	if err := c.Batch([]*Request{{Op: OpWrite, Addr: 0, Data: []byte("short")}}); err == nil {
		t.Error("Batch accepted short write payload")
	}
	if err := c.Batch([]*Request{{Addr: -1}}); err == nil {
		t.Error("Batch accepted negative address")
	}
	if err := c.Batch([]*Request{nil}); err == nil {
		t.Error("Batch accepted a nil request")
	}
}

// TestEnqueueFlush pins what a caller grouping requests relies on
// (the name predates Batch being the only grouping call): a malformed
// request anywhere fails the batch before ANY request runs, requests
// execute in submission order, and an empty batch is a no-op.
func TestEnqueueFlush(t *testing.T) {
	c := open(t)
	want := bytes.Repeat([]byte{42}, 64)

	// The bad request is LAST: the good write ahead of it must not run,
	// and must not be left queued for a later batch to execute.
	before := c.Stats()
	err := c.Batch([]*Request{
		{Op: OpWrite, Addr: 5, Data: want},
		{Op: OpRead, Addr: 999},
	})
	if err == nil {
		t.Fatal("batch with an out-of-range request accepted")
	}
	if after := c.Stats(); after.Requests != before.Requests || after.Cycles != before.Cycles {
		t.Fatalf("rejected batch ran: requests %d -> %d, cycles %d -> %d",
			before.Requests, after.Requests, before.Cycles, after.Cycles)
	}
	if n := c.Engine().Pending(); n != 0 {
		t.Fatalf("rejected batch left %d requests queued in the ROB", n)
	}
	got, err := c.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("the write ahead of the malformed request took effect")
	}

	// Submission order within one batch: a read queued after a write of
	// the same address returns the written bytes; a read queued before
	// it returns the old ones.
	early := &Request{Op: OpRead, Addr: 6}
	late := &Request{Op: OpRead, Addr: 6}
	if err := c.Batch([]*Request{early, {Op: OpWrite, Addr: 6, Data: want}, late}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(early.Result, make([]byte, 64)) {
		t.Fatal("read submitted before the write observed it")
	}
	if !bytes.Equal(late.Result, want) {
		t.Fatal("read submitted after the write did not observe it")
	}

	// An empty batch is a no-op.
	before = c.Stats()
	if err := c.Batch(nil); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats(); after.Requests != before.Requests || after.Cycles != before.Cycles {
		t.Fatal("empty batch ran scheduler cycles")
	}
}

// TestDrainHookFiresBeforeFuturesResolve pins the ordering
// internal/engine's per-shard accounting depends on (the name predates
// the drain hook's removal): accounting is committed before Batch
// returns, so under concurrent callers a Stats() read right after a
// caller's Batch returns already includes that caller's requests.
func TestDrainHookFiresBeforeFuturesResolve(t *testing.T) {
	c := open(t)
	const callers, rounds, perBatch = 6, 20, 3
	var done atomic.Int64 // requests whose Batch has returned
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				reqs := make([]*Request, perBatch)
				for j := range reqs {
					reqs[j] = &Request{Op: OpRead, Addr: int64(w*perBatch + j)}
				}
				if err := c.Batch(reqs); err != nil {
					t.Error(err)
					return
				}
				// Everything counted in done has returned, this batch
				// included, so the scheme counters must cover it.
				want := done.Add(perBatch)
				if got := c.Stats().Requests; got < want {
					t.Errorf("Stats().Requests = %d right after Batch returned, want >= %d", got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.Stats().Requests, int64(callers*rounds*perBatch); got != want {
		t.Fatalf("Stats().Requests = %d at quiescence, want %d", got, want)
	}
}

// TestConcurrentClientUse hammers the client from many goroutines —
// mixed single ops, batches and stats — to prove the mutex
// discipline under the race detector.
func TestConcurrentClientUse(t *testing.T) {
	c := open(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * 16)
			payload := bytes.Repeat([]byte{byte(w + 1)}, 64)
			for i := 0; i < 10; i++ {
				a := base + int64(i%16)
				if err := c.Write(a, payload); err != nil {
					t.Error(err)
					return
				}
				got, err := c.Read(a)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("worker %d: read-your-write violated at %d", w, a)
					return
				}
				r := &Request{Op: OpRead, Addr: a}
				if err := c.Batch([]*Request{r}); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(r.Result, payload) {
					t.Errorf("worker %d: batched read missed the write at %d", w, a)
					return
				}
				c.Stats()
			}
		}(w)
	}
	wg.Wait()
}
