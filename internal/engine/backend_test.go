// ShardBackend seam coverage: Close error aggregation when remote
// shards are already gone, and the Shard/ShardOf panics — including
// the remote-shard case, where there is no in-process client to hand
// out.
package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/horam"
	"repro/internal/obs"
)

// stubBackend is a minimal ShardBackend for seam tests: it serves
// zero blocks for reads, counts cycles one per request, counts Stats
// calls (for a remote shard, each is a node round trip), and fails
// Close with a configurable error (a dead remote shard's torn
// connection).
type stubBackend struct {
	blocks     int64
	cycles     int64
	statsCalls int
	closeErr   error
	closed     bool
}

func (s *stubBackend) Blocks() int64 { return s.blocks }

func (s *stubBackend) Batch(reqs []*Request) error {
	for _, r := range reqs {
		if r.Op == OpRead {
			r.Result = make([]byte, 8)
		}
		s.cycles++
	}
	return nil
}

func (s *stubBackend) Cycles() (int64, error) { return s.cycles, nil }

func (s *stubBackend) PadToCycles(target int64) (int64, error) {
	padded := target - s.cycles
	if padded < 0 {
		return 0, nil
	}
	s.cycles = target
	return padded, nil
}

func (s *stubBackend) Stats() core.Stats {
	s.statsCalls++
	return core.Stats{Stats: horam.Stats{Cycles: s.cycles}}
}

func (s *stubBackend) SaveSnapshotAt(uint64) error { return errors.New("stub: no durability") }

func (s *stubBackend) Peek() (uint64, uint64, error) { return 0, 0, nil }

func (s *stubBackend) Close() error {
	s.closed = true
	return s.closeErr
}

// stubEngine assembles a 2-shard engine over stub backends. The stub
// block counts must match the PRF partition: 8 blocks over 2 shards
// deals 4 to each.
func stubEngine(t *testing.T, stubs []*stubBackend) *Engine {
	t.Helper()
	backends := make([]ShardBackend, len(stubs))
	for i, s := range stubs {
		s.blocks = 4
		backends[i] = s
	}
	e, err := NewWithBackends(Options{
		Blocks:      8,
		BlockSize:   8,
		MemoryBytes: 1 << 10,
		Insecure:    true,
		Seed:        "backend-test",
		Shards:      len(stubs),
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// When several remote shards are already gone, Close must report ALL
// their errors (errors.Join), not just the first — an operator
// tearing a gateway down needs to know every node that went with it —
// and must still close every backend.
func TestCloseAggregatesRemoteShardErrors(t *testing.T) {
	err0 := errors.New("shard 0: connection torn")
	err1 := errors.New("shard 1: connection torn")
	stubs := []*stubBackend{{closeErr: err0}, {closeErr: err1}}
	e := stubEngine(t, stubs)

	err := e.Close()
	if !errors.Is(err, err0) || !errors.Is(err, err1) {
		t.Fatalf("Close error %v does not join both shard errors", err)
	}
	for i, s := range stubs {
		if !s.closed {
			t.Errorf("shard %d backend not closed despite neighbour errors", i)
		}
	}
	// Repeat Close: resources are gone, no error replay.
	if err := e.Close(); err != nil {
		t.Fatalf("second Close returned %v, want nil", err)
	}
}

// The engine must actually serve through stub backends — guarding the
// seam itself, not just its failure paths.
func TestNewWithBackendsServes(t *testing.T) {
	e := stubEngine(t, []*stubBackend{{}, {}})
	defer e.Close()
	data, err := e.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8 {
		t.Fatalf("read %d bytes, want 8", len(data))
	}
	// Leveling ran against the stubs' cycle counters.
	n, err := e.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.Shards(); i++ {
		if got, _ := e.Backend(i).Cycles(); got != n {
			t.Fatalf("shard %d at %d cycles, engine max is %d — leveling skipped a backend", i, got, n)
		}
	}
}

// NewWithBackends must refuse a backend set that does not match the
// PRF partition — a node serving the wrong slice would scramble the
// address space silently.
func TestNewWithBackendsRefusesWrongGeometry(t *testing.T) {
	_, err := NewWithBackends(Options{
		Blocks:      8,
		BlockSize:   8,
		MemoryBytes: 1 << 10,
		Insecure:    true,
		Seed:        "backend-test",
		Shards:      2,
	}, []ShardBackend{&stubBackend{blocks: 4}, &stubBackend{blocks: 5}})
	if err == nil || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("mismatched backend blocks: got %v, want partition refusal", err)
	}
}

func TestShardOfPanicsOutOfRange(t *testing.T) {
	e := stubEngine(t, []*stubBackend{{}, {}})
	defer e.Close()
	for _, addr := range []int64{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ShardOf(%d) did not panic", addr)
				}
			}()
			e.ShardOf(addr)
		}()
	}
	// In range: no panic, and the full address space maps to valid
	// shard indices.
	for addr := int64(0); addr < 8; addr++ {
		if s := e.ShardOf(addr); s < 0 || s >= 2 {
			t.Fatalf("ShardOf(%d) = %d", addr, s)
		}
	}
}

func TestShardPanics(t *testing.T) {
	e := stubEngine(t, []*stubBackend{{}, {}})
	defer e.Close()
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Shard(%d) did not panic", i)
				}
			}()
			e.Shard(i)
		}()
	}
	// A remote (non-in-process) shard has no core.Client to expose:
	// Shard must panic rather than return nil.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Shard(0) on a remote-backed engine did not panic")
			}
			if !strings.Contains(fmt.Sprint(r), "not in-process") {
				t.Fatalf("Shard(0) panic = %v, want not-in-process explanation", r)
			}
		}()
		e.Shard(0)
	}()

	// Backend(i) panics out of range too, but serves the in-range case
	// remote shards rely on.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Backend(2) did not panic")
			}
		}()
		e.Backend(2)
	}()
}

// One STATS render (the registry the engine is observed on, rendered
// whole) reads each backend's Stats at most twice — what the
// hand-built line cost, Engine.Stats plus the per-shard snapshot — so
// a gateway polling STATS pays no more node round trips although more
// series now show scheme counters.
func TestStatsRenderBoundsBackendReads(t *testing.T) {
	stubs := []*stubBackend{{}, {}}
	e := stubEngine(t, stubs)
	defer e.Close()
	reg := obs.NewRegistry()
	e.Observe(reg, nil)
	for a := int64(0); a < e.Blocks(); a++ {
		if _, err := e.Read(a); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range stubs {
		s.statsCalls = 0
	}
	body := string(reg.AppendStats(nil))
	for i, s := range stubs {
		if s.statsCalls < 1 || s.statsCalls > 2 {
			t.Errorf("shard %d: one STATS render called Stats %d times, want 1 or 2", i, s.statsCalls)
		}
		if want := fmt.Sprintf(` horam_shard_requests{shard="%d"}=`, i); !strings.Contains(body, want) {
			t.Errorf("STATS body carries no %q:\n%s", want, body)
		}
	}
}
