// Package enginetest lets a test decide what a shard drain carries.
// A shard's queue merges whatever arrives while its previous drain
// runs, so left alone the grouping depends on goroutine scheduling (at
// GOMAXPROCS 1 over in-memory devices nothing ever coalesces). A Held
// backend parks the scheduler inside a drain; the test queues requests
// behind it (WaitQueued), releases, and checks what the next one took.
package enginetest

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
)

// Held is an engine.ShardBackend whose Batch blocks until released.
type Held struct {
	engine.ShardBackend
	entered chan int
	release chan struct{}
	open    sync.Once
}

// Hold builds an in-process engine from opts and a second engine over
// its shards, each wrapped in a Held. Both are closed with the test.
func Hold(t testing.TB, opts engine.Options) (*engine.Engine, []*Held) {
	t.Helper()
	inner, err := engine.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	held := make([]*Held, inner.Shards())
	backends := make([]engine.ShardBackend, inner.Shards())
	for i := range held {
		held[i] = &Held{ShardBackend: inner.Backend(i), entered: make(chan int), release: make(chan struct{})}
		backends[i] = held[i]
	}
	e, err := engine.NewWithBackends(opts, backends)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, h := range held {
			h.Open()
		}
		if err := errors.Join(e.Close(), inner.Close()); err != nil {
			t.Errorf("closing held engines: %v", err)
		}
	})
	return e, held
}

// Batch announces the drain's size to Entered, waits for Release,
// then runs the drain. After Open it runs the drain at once.
func (h *Held) Batch(reqs []*engine.Request) error {
	select {
	case h.entered <- len(reqs):
		<-h.release
	case <-h.release: // closed by Open
	}
	return h.ShardBackend.Batch(reqs)
}

// Close leaves the wrapped backend to the inner engine, which owns it.
func (h *Held) Close() error { return nil }

// Entered waits for the next drain to reach the backend and returns
// how many requests it carries. The drain stays parked until Release.
func (h *Held) Entered() int { return <-h.entered }

// Release lets the drain that Entered reported run.
func (h *Held) Release() { h.release <- struct{}{} }

// Open stops holding: the parked drain and every later one run freely.
func (h *Held) Open() { h.open.Do(func() { close(h.release) }) }

// WaitQueued returns once shard's queue holds n undrained requests.
// Callers park the shard first, so the depth only grows towards n.
func WaitQueued(t testing.TB, e *engine.Engine, shard, n int) {
	t.Helper()
	for {
		switch d := e.ShardStats()[shard].QueueDepth; {
		case d == n:
			return
		case d > n:
			t.Fatalf("shard %d has %d requests queued, want %d", shard, d, n)
		}
		runtime.Gosched()
	}
}
