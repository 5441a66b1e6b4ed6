package main

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/blockcipher"
	"repro/internal/workload"
)

// spec is one workload: the topology the stack is assembled with and
// the traffic the connections send. README.md explains why each exists
// and which layer it is meant to load.
type spec struct {
	name string
	why  string

	blocks       int64
	blockSize    int
	memoryBytes  int64
	shards       int
	constantTime bool

	conns int
	// multi is the number of READ/WRITE ops per client call: 1 sends
	// single requests through the server's batching window, >1 sends
	// them as one MULTI.
	multi int
	// hotspot selects the paper's §5.2.1 80/20 trace; false is uniform.
	hotspot bool

	// kv switches the stack to the oblivious key-value layer. Each
	// connection seeds kvKeys keys during set-up and then issues
	// 60/30/10 KGET/KSET/KDEL over 1.1x that key space.
	kv         bool
	kvKeys     int
	kvMaxValue int
}

// workloads is the benchmark's fixed workload set, in BENCHMARK.json
// order.
var workloads = []spec{
	{
		name:   "block_rtt",
		why:    "one caller, single READ/WRITE, every op a miss: the server's fixed 2 ms batch window dominates the round trip",
		blocks: 16384, blockSize: 1024, memoryBytes: 2 << 20, shards: 1,
		conns: 1, multi: 1,
	},
	{
		name:   "block_pipelined",
		why:    "two callers sending MULTI 64 over an 80/20 hot set that fits the cache: throughput, sealer-bound, the batch window never waits",
		blocks: 32768, blockSize: 1024, memoryBytes: 16 << 20, shards: 4,
		conns: 2, multi: 64, hotspot: true,
	},
	{
		name:   "kv_mixed",
		why:    "oblivious KV ops (13 blocks in three dependent engine batches each): many small batches that bypass the server batcher, leveling pads matter",
		blocks: 16384, blockSize: 1024, memoryBytes: 4 << 20, shards: 4,
		conns: 2, multi: 1,
		kv: true, kvKeys: 96, kvMaxValue: 2048,
	},
	{
		name:   "block_ct",
		why:    "constant-time mode on a small geometry: almost all CPU is masked stash/posmap scans, sealer and batching wait are noise",
		blocks: 1024, blockSize: 64, memoryBytes: 16 << 10, shards: 2, constantTime: true,
		conns: 2, multi: 1,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opKGet
	opKSet
	opKDel
)

// op is one logical operation of a connection's stream.
type op struct {
	kind opKind
	addr int64  // block ops
	key  []byte // kv ops
	data []byte // write payload or KSET value
}

// stream generates one connection's ops as a pure function of
// (workload, seed, connection id). Connections own disjoint address
// and key ranges — connection i of c owns the addresses congruent to i
// mod c and the keys prefixed with its id — so a per-connection model
// is exact however the server interleaves them.
type stream struct {
	sp   spec
	conn int
	rng  *blockcipher.RNG
	gen  workload.Generator
}

func newStream(sp spec, seed int64, conn int) (*stream, error) {
	rng := blockcipher.NewRNGFromString(fmt.Sprintf("benchmark/%s/seed-%d/conn-%d", sp.name, seed, conn))
	st := &stream{sp: sp, conn: conn, rng: rng}
	if sp.kv {
		return st, nil
	}
	n := sp.blocks / int64(sp.conns)
	var err error
	if sp.hotspot {
		st.gen, err = workload.NewHotspot(n, 0.8, 0.2, rng.Fork("addr"))
	} else {
		st.gen, err = workload.NewUniform(n, rng.Fork("addr"))
	}
	return st, err
}

func kvKey(conn, idx int) []byte { return []byte(fmt.Sprintf("c%d-key-%06d", conn, idx)) }

func (st *stream) payload(n int) []byte {
	b := make([]byte, n)
	st.rng.Read(b) // the RNG's Read never fails
	return b
}

func (st *stream) value() []byte { return st.payload(1 + st.rng.Intn(st.sp.kvMaxValue)) }

func (st *stream) next() op {
	if st.sp.kv {
		key := kvKey(st.conn, st.rng.Intn(st.sp.kvKeys+st.sp.kvKeys/10))
		switch r := st.rng.Float64(); {
		case r < 0.6:
			return op{kind: opKGet, key: key}
		case r < 0.9:
			return op{kind: opKSet, key: key, data: st.value()}
		default:
			return op{kind: opKDel, key: key}
		}
	}
	addr := st.gen.Next()*int64(st.sp.conns) + int64(st.conn)
	if st.rng.Intn(2) == 0 {
		return op{kind: opRead, addr: addr}
	}
	return op{kind: opWrite, addr: addr, data: st.payload(st.sp.blockSize)}
}

// model is the oracle for one connection: what every address or key it
// owns must currently hold.
type model struct {
	blockSize int
	blocks    map[int64][]byte
	keys      map[string][]byte
}

func newModel(sp spec) *model {
	return &model{blockSize: sp.blockSize, blocks: make(map[int64][]byte), keys: make(map[string][]byte)}
}

// apply records a mutation; check compares a reply for o against the
// model. got is the returned block or value, found the KGET/KDEL
// presence bit.
func (m *model) apply(o op) {
	switch o.kind {
	case opWrite:
		m.blocks[o.addr] = o.data
	case opKSet:
		m.keys[string(o.key)] = o.data
	case opKDel:
		delete(m.keys, string(o.key))
	}
}

func (m *model) check(o op, got []byte, found bool) bool {
	switch o.kind {
	case opRead:
		want, ok := m.blocks[o.addr]
		if !ok {
			want = make([]byte, m.blockSize)
		}
		return bytes.Equal(got, want)
	case opKGet:
		want, ok := m.keys[string(o.key)]
		return ok == found && (!ok || bytes.Equal(got, want))
	case opKDel:
		_, ok := m.keys[string(o.key)]
		return ok == found
	}
	return true
}

// sweepOps lists read-backs of everything the model holds, in a
// deterministic order that spreads a time-capped prefix over the
// whole address or key range.
func (m *model) sweepOps(rng *blockcipher.RNG) []op {
	var ops []op
	addrs := make([]int64, 0, len(m.blocks))
	for a := range m.blocks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		ops = append(ops, op{kind: opRead, addr: a})
	}
	keys := make([]string, 0, len(m.keys))
	for k := range m.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ops = append(ops, op{kind: opKGet, key: []byte(k)})
	}
	out := make([]op, len(ops))
	for i, j := range rng.Perm(len(ops)) {
		out[i] = ops[j]
	}
	return out
}
