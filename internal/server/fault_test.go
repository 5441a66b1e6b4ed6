// Fault-injection regression tests for per-command error attribution
// (the test names predate the batcher's removal): a command runs
// through the engine in MaxBatch-sized chunks on its own connection's
// goroutine, every chunk is attempted, and the command sees an error
// iff one of ITS chunks failed — chunks that drained before or after
// the failing one really executed, and what another connection has in
// flight at the same moment never shows up in its answer.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
)

var errChunkFault = errors.New("injected chunk fault")

// faultDrain replaces srv.drain with a hook that fails any chunk
// containing faultAddr (-1 for none), logs the first address of every
// chunk attempted, and — when gate is non-nil — parks the faulting
// chunk until gate closes, so a test can run another connection's
// command to completion while this one is mid-flight.
type faultDrain struct {
	mu        sync.Mutex
	faultAddr int64
	attempted []int64
	gate      chan struct{}
	parked    chan struct{} // closed when the faulting chunk reaches the gate
}

func installFaultDrain(srv *Server) *faultDrain {
	f := &faultDrain{faultAddr: -1}
	real := srv.drain
	srv.drain = func(reqs []*core.Request) error {
		f.mu.Lock()
		f.attempted = append(f.attempted, reqs[0].Addr)
		faultAddr, gate, parked := f.faultAddr, f.gate, f.parked
		f.mu.Unlock()
		for _, r := range reqs {
			if r.Addr == faultAddr {
				if gate != nil {
					close(parked)
					<-gate
				}
				return fmt.Errorf("%w (addr %d)", errChunkFault, r.Addr)
			}
		}
		return real(reqs)
	}
	return f
}

// arm sets the next fault and clears the attempt log.
func (f *faultDrain) arm(addr int64, gated bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faultAddr, f.attempted, f.gate, f.parked = addr, nil, nil, nil
	if gated {
		f.gate, f.parked = make(chan struct{}), make(chan struct{})
	}
}

func (f *faultDrain) chunks() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int64(nil), f.attempted...)
}

func reads(addrs ...int64) []*core.Request {
	reqs := make([]*core.Request, len(addrs))
	for i, a := range addrs {
		reqs[i] = &core.Request{Op: core.OpRead, Addr: a}
	}
	return reqs
}

func TestBatcherPerTaskErrorAttribution(t *testing.T) {
	// MaxBatch 2 and a 6-request command: exactly three chunks,
	// [0 1] [10 11] [20 21].
	_, srv := startServer(t, Config{MaxBatch: 2})
	f := installFaultDrain(srv)
	wantChunks := []int64{0, 10, 20}
	command := func() []*core.Request { return reads(0, 1, 10, 11, 20, 21) }
	checkRan := func(reqs []*core.Request, ran ...bool) {
		t.Helper()
		for i, r := range reqs {
			if got := r.Result != nil; got != ran[i/2] {
				t.Errorf("request %d (addr %d): executed = %v, want %v", i, r.Addr, got, ran[i/2])
			}
		}
	}

	// Fault the MIDDLE chunk, and hold it at the fault while another
	// connection's command runs start to finish: that command is clean,
	// and this one reports the fault with its outer chunks executed.
	f.arm(10, true)
	reqs := command()
	errc := make(chan error, 1)
	go func() { errc <- srv.dispatch(reqs) }()
	<-f.parked
	other := reads(30, 31, 32)
	if err := srv.dispatch(other); err != nil {
		t.Errorf("concurrent command got %v while a neighbour's chunk was failing, want nil", err)
	}
	checkRan(other, true, true)
	close(f.gate)
	if err := <-errc; !errors.Is(err, errChunkFault) {
		t.Errorf("command with a faulted middle chunk got %v, want the injected fault", err)
	}
	checkRan(reqs, true, false, true)
	if got := f.chunks(); fmt.Sprint(got) != fmt.Sprint([]int64{0, 10, 30, 32, 20}) {
		t.Errorf("chunks attempted (by first address) = %v, want [0 10 30 32 20]", got)
	}
	// Only chunks that drained are counted: 2 of this command's 3, plus
	// the neighbour's 2.
	if st := srv.Stats(); st.Batches != 4 || st.Requests != 7 {
		t.Errorf("after one faulted chunk: %d windows / %d requests, want 4 / 7", st.Batches, st.Requests)
	}

	// Fault the FIRST chunk: the later chunks are still attempted and
	// really execute.
	f.arm(0, false)
	reqs = command()
	if err := srv.dispatch(reqs); !errors.Is(err, errChunkFault) {
		t.Errorf("command with a faulted first chunk got %v, want the injected fault", err)
	}
	checkRan(reqs, false, true, true)
	if got := f.chunks(); fmt.Sprint(got) != fmt.Sprint(wantChunks) {
		t.Errorf("chunks attempted = %v, want %v", got, wantChunks)
	}

	// No fault: clean iff all chunks drained.
	f.arm(-1, false)
	reqs = command()
	if err := srv.dispatch(reqs); err != nil {
		t.Errorf("command got %v after the fault cleared", err)
	}
	checkRan(reqs, true, true, true)
}

// TestBatcherSpanningTaskErrorAttribution is the same contract seen
// from the wire: a MULTI that spans a chunk boundary answers one ERR
// if ANY of its chunks failed, the chunks that drained took effect
// all the same, and a second connection is never told about it.
func TestBatcherSpanningTaskErrorAttribution(t *testing.T) {
	// MaxBatch 4 and a MULTI of 6 writes: chunks [0 1 2 3] and [4 5].
	addr, srv := startServer(t, Config{MaxBatch: 4})
	f := installFaultDrain(srv)
	a, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	multi := func(v byte) []client.Op {
		ops := make([]client.Op, 6)
		for i := range ops {
			ops[i] = client.Op{Write: true, Addr: int64(i), Data: bytes.Repeat([]byte{v}, 64)}
		}
		return ops
	}
	// wantBlocks reads blocks 0..5 back over connection b and compares
	// each against the fill byte expected for it.
	wantBlocks := func(fill ...byte) {
		t.Helper()
		for i, v := range fill {
			got, err := b.Read(int64(i))
			if err != nil {
				t.Fatalf("read-back of block %d: %v", i, err)
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{v}, 64)) {
				t.Errorf("block %d = %x…, want fill %x", i, got[:2], v)
			}
		}
	}

	// Fault the TAIL chunk and hold it there while connection b runs a
	// command of its own.
	f.arm(5, true)
	errc := make(chan error, 1)
	go func() {
		_, err := a.Batch(multi(1))
		errc <- err
	}()
	<-f.parked
	if err := b.Write(100, bytes.Repeat([]byte{9}, 64)); err != nil {
		t.Errorf("second connection got %v while the first one's chunk was failing, want OK", err)
	}
	close(f.gate)
	if err := <-errc; err == nil || !strings.Contains(err.Error(), errChunkFault.Error()) {
		t.Errorf("MULTI whose tail chunk failed got %v, want the injected fault", err)
	}
	f.arm(-1, false)
	wantBlocks(1, 1, 1, 1, 0, 0) // head chunk landed, tail chunk never ran

	// Fault the HEAD chunk: the tail chunk still runs.
	f.arm(2, false)
	if _, err := a.Batch(multi(2)); err == nil || !strings.Contains(err.Error(), errChunkFault.Error()) {
		t.Errorf("MULTI whose head chunk failed got %v, want the injected fault", err)
	}
	f.arm(-1, false)
	wantBlocks(1, 1, 1, 1, 2, 2)

	// No fault: one OK, everything lands.
	if _, err := a.Batch(multi(3)); err != nil {
		t.Errorf("MULTI got %v after the fault cleared", err)
	}
	wantBlocks(3, 3, 3, 3, 3, 3)
}
