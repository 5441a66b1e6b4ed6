// Constant-time mode tests for the KV layer: the branchless selector
// must make exactly the selections the branching one makes, so the
// request stream handed to the backend — every op, address and
// payload byte, in order — is identical across modes, and both modes
// must agree with the map model on every result, including the
// ErrTableFull and miss edges and keys/values with trailing zeros.
package okv

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

// reqEvent is one backend request as the store issued it.
type reqEvent struct {
	op   core.Op
	addr int64
	data string // write payload copy ("" for reads)
}

// recBackend wraps a Backend and logs every request. The log records
// the flat request stream, not batch boundaries: the assertions are
// about which blocks the store touches, in what order, and do not
// depend on how its phases are grouped into batches.
type recBackend struct {
	inner Backend
	mu    sync.Mutex
	log   []reqEvent
}

func (r *recBackend) Batch(reqs []*core.Request) error {
	r.mu.Lock()
	for _, q := range reqs {
		ev := reqEvent{op: q.Op, addr: q.Addr}
		if q.Op == core.OpWrite {
			ev.data = string(q.Data)
		}
		r.log = append(r.log, ev)
	}
	r.mu.Unlock()
	return r.inner.Batch(reqs)
}
func (r *recBackend) Blocks() int64  { return r.inner.Blocks() }
func (r *recBackend) BlockSize() int { return r.inner.BlockSize() }

// ctKVStore builds a store over a recording backend.
func ctKVStore(t *testing.T, ct bool) (*Store, *recBackend) {
	t.Helper()
	rec := &recBackend{inner: newCoreClient(t)}
	s, err := New(Options{
		Backend:       rec,
		MaxValueBytes: 48,
		MaxKeyBytes:   12,
		Insecure:      true,
		Seed:          "okv-ct-parity",
		ConstantTime:  ct,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, rec
}

// kvOp is one scripted operation; the script runs identically against
// both stores and the map model.
type kvOp struct {
	kind  opKind
	key   string
	value string
}

// ctScript builds a deterministic op mix covering hit/miss GETs,
// inserting and updating SETs (including into full buckets), present
// and absent DELs, and zero-byte key/value edges.
func ctScript() []kvOp {
	var ops []kvOp
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	// Fill essentially the whole table (capacity 168 slots at the test
	// geometry) so some SETs land in full bucket pairs (ErrTableFull
	// parity).
	for i := 0; i < 180; i++ {
		ops = append(ops, kvOp{opSet, key(i), fmt.Sprintf("v%d", i)})
	}
	for i := 0; i < 40; i++ {
		ops = append(ops, kvOp{opGet, key(i * 3), ""})            // mixed hit/miss
		ops = append(ops, kvOp{opSet, key(i * 2), "updated"})     // mostly updates
		ops = append(ops, kvOp{opDel, key(i*5 + 1), ""})          // mixed hit/miss
		ops = append(ops, kvOp{opGet, fmt.Sprintf("m%d", i), ""}) // guaranteed miss
	}
	// Trailing-zero edges: keys that are prefixes of each other plus a
	// zero byte, values with embedded and trailing zeros.
	ops = append(ops,
		kvOp{opSet, "z", "plain"},
		kvOp{opSet, "z\x00", "with-zero"},
		kvOp{opGet, "z", ""},
		kvOp{opGet, "z\x00", ""},
		kvOp{opGet, "z\x00\x00", ""},
		kvOp{opSet, "zv", "a\x00b\x00\x00"},
		kvOp{opGet, "zv", ""},
		kvOp{opDel, "z\x00", ""},
		kvOp{opGet, "z\x00", ""},
		kvOp{opGet, "z", ""},
	)
	return ops
}

// runScript executes the script, checking against the map model, and
// returns a transcript of every observable outcome.
func runScript(t *testing.T, s *Store, label string) []byte {
	t.Helper()
	model := make(map[string]string)
	var out bytes.Buffer
	for i, op := range ctScript() {
		switch op.kind {
		case opSet:
			err := s.Set([]byte(op.key), []byte(op.value))
			if errors.Is(err, ErrTableFull) {
				fmt.Fprintf(&out, "%d:set-full;", i)
				continue
			}
			if err != nil {
				t.Fatalf("%s: op %d Set(%q): %v", label, i, op.key, err)
			}
			model[op.key] = op.value
			fmt.Fprintf(&out, "%d:set;", i)
		case opGet:
			v, ok, err := s.Get([]byte(op.key))
			if err != nil {
				t.Fatalf("%s: op %d Get(%q): %v", label, i, op.key, err)
			}
			want, wantOK := model[op.key]
			if ok != wantOK || (ok && string(v) != want) {
				t.Fatalf("%s: op %d Get(%q) = %q,%v; model %q,%v", label, i, op.key, v, ok, want, wantOK)
			}
			fmt.Fprintf(&out, "%d:get=%q,%v;", i, v, ok)
		case opDel:
			ok, err := s.Del([]byte(op.key))
			if err != nil {
				t.Fatalf("%s: op %d Del(%q): %v", label, i, op.key, err)
			}
			_, wantOK := model[op.key]
			if ok != wantOK {
				t.Fatalf("%s: op %d Del(%q) = %v, model %v", label, i, op.key, ok, wantOK)
			}
			delete(model, op.key)
			fmt.Fprintf(&out, "%d:del=%v;", i, ok)
		}
	}
	st := s.Stats()
	fmt.Fprintf(&out, "count=%d gets=%d sets=%d dels=%d misses=%d", st.Count, st.Gets, st.Sets, st.Dels, st.Misses)
	return out.Bytes()
}

// TestConstantTimeBackendStreamParity: both modes run the scripted
// workload against the map model, produce identical outcomes, and
// issue byte-identical backend request streams.
func TestConstantTimeBackendStreamParity(t *testing.T) {
	sDef, recDef := ctKVStore(t, false)
	sCT, recCT := ctKVStore(t, true)

	outDef := runScript(t, sDef, "default")
	outCT := runScript(t, sCT, "constant-time")
	if !bytes.Equal(outDef, outCT) {
		t.Fatalf("outcomes differ:\ndefault: %s\nct:      %s", outDef, outCT)
	}

	if len(recDef.log) != len(recCT.log) {
		t.Fatalf("backend request counts differ: default %d, ct %d", len(recDef.log), len(recCT.log))
	}
	if len(recDef.log) == 0 {
		t.Fatal("no backend requests recorded")
	}
	for i := range recDef.log {
		d, c := recDef.log[i], recCT.log[i]
		if d.op != c.op || d.addr != c.addr || d.data != c.data {
			t.Fatalf("request %d differs: default {op:%v addr:%d %d data bytes}, ct {op:%v addr:%d %d data bytes}",
				i, d.op, d.addr, len(d.data), c.op, c.addr, len(c.data))
		}
	}

	// The script must actually have exercised the interesting edges.
	if !bytes.Contains(outDef, []byte("set-full;")) {
		t.Fatal("script never hit ErrTableFull; shrink the table or add keys")
	}
	if !bytes.Contains(outDef, []byte(`,false;`)) {
		t.Fatal("script never produced a GET miss")
	}
}
