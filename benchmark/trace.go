package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/horam"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/snapshot"
)

// The traced pass. End-to-end numbers come from the stack as horamd
// builds it; this file builds a second stack whose layer boundaries
// the benchmark can see, without touching the program:
//
//   - engine.NewWithBackends over tracedShard, an engine.ShardBackend
//     that drives a horam.ORAM the way core.Client does and records a
//     span per Batch and per PadToCycles;
//   - the ORAM's Config.Sealer and Config.Storage are timing wrappers,
//     so seal, open and device time are measured in place, at the batch
//     sizes and concurrency the workload really produces;
//   - in KV mode okv runs over tracedKV, an okv.Backend around the
//     engine;
//   - the program's own six span sites are armed through the obs.Tracer
//     horamd already wires.

// Span names recorded by the benchmark's wrappers.
const (
	spanClient   = "client.call"
	spanKV       = "okv.backend"
	spanShard    = "shard.batch"
	spanPad      = "shard.pad"
	spanSeal     = "blockcipher.seal"
	spanOpen     = "blockcipher.open"
	spanDevRead  = "device.read"
	spanDevWrite = "device.write"
)

type span struct {
	name       string
	tid        int
	start, end time.Duration // since the recorder's origin
}

// traceSet is the traced pass's span store: one recorder per producer
// (each shard, the KV wrapper), so recording never contends across
// shards, all gated by one switch that is on only during the measured
// window.
type traceSet struct {
	armed     atomic.Bool
	origin    time.Time
	recorders []*recorder
}

func (ts *traceSet) arm(origin time.Time) {
	ts.origin = origin
	ts.armed.Store(true)
}

func (ts *traceSet) recorder() *recorder {
	r := &recorder{set: ts}
	ts.recorders = append(ts.recorders, r)
	return r
}

// recorder keeps one producer's spans in memory.
type recorder struct {
	set   *traceSet
	mu    sync.Mutex
	spans []span
}

// add records [start, now) under name.
func (r *recorder) add(name string, tid int, start time.Time) {
	if !r.set.armed.Load() {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{name, tid, start.Sub(r.set.origin), end.Sub(r.set.origin)})
	r.mu.Unlock()
}

// tracedShard is the in-process shard the traced pass runs: a
// horam.ORAM behind the engine's ShardBackend seam, serialised on one
// mutex exactly as core.Client serialises it.
type tracedShard struct {
	mu     sync.Mutex
	id     int
	blocks int64
	oram   *horam.ORAM
	rec    *recorder
}

// newTracedShard builds shard id from the options engine.ShardConfig
// derived for it, with core.Open's key schedule and file layout.
func newTracedShard(opts engine.Options, dir string, id int, rec *recorder) (*tracedShard, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	prf, err := blockcipher.NewPRF(opts.Key)
	if err != nil {
		return nil, err
	}
	aes, err := blockcipher.NewAESSealer(opts.Key, blockcipher.NewRNG(prf.Derive("sealer-rng-epoch-0", 32)))
	if err != nil {
		return nil, err
	}
	tid := id + 1 // the tracer's convention: shard i is virtual thread i+1
	cfg := horam.Config{
		Blocks:       opts.Blocks,
		BlockSize:    opts.BlockSize,
		MemoryBytes:  opts.MemoryBytes,
		ConstantTime: opts.ConstantTime,
		Sealer:       &tracedSealer{inner: aes, rec: rec, tid: tid},
		RNG:          blockcipher.NewRNG(prf.Derive("client-seed", 32)),
		Storage: func(p device.Profile, slotSize int, slots int64, clk *simclock.Clock) (device.Backend, error) {
			f, err := device.NewFile(device.FileConfig{
				Path: filepath.Join(dir, core.StorageFileName), Profile: p, SlotSize: slotSize, Slots: slots, Clock: clk,
			})
			if err != nil {
				return nil, err
			}
			return &tracedFile{File: f, rec: rec, tid: tid}, nil
		},
		ShuffleMark: func(gen int64, done bool) error {
			g := snapshot.Gen{Started: gen, Completed: gen}
			if !done {
				g.Completed = gen - 1
			}
			return snapshot.WriteGen(filepath.Join(dir, core.GenFileName), g)
		},
	}
	o, err := horam.New(cfg)
	if err != nil {
		return nil, err
	}
	return &tracedShard{id: id, blocks: opts.Blocks, oram: o, rec: rec}, nil
}

func (t *tracedShard) Blocks() int64 { return t.blocks }

func (t *tracedShard) Batch(reqs []*engine.Request) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.rec.add(spanShard, t.id+1, time.Now())
	return t.oram.RunBatch(reqs)
}

func (t *tracedShard) Cycles() (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.oram.Stats().Cycles, nil
}

func (t *tracedShard) PadToCycles(target int64) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.rec.add(spanPad, t.id+1, time.Now())
	return t.oram.PadToCycles(target)
}

func (t *tracedShard) Stats() core.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return core.Stats{
		Stats:         t.oram.Stats(),
		SimulatedTime: t.oram.Clock().Now(),
		AccessTime:    t.oram.AccessTime(),
		ShuffleTime:   t.oram.ShuffleTime(),
	}
}

func (t *tracedShard) SaveSnapshotAt(uint64) error {
	return errors.New("benchmark: the traced shard does not checkpoint")
}

func (t *tracedShard) Peek() (epoch, checkpoint uint64, err error) { return 0, 0, nil }

func (t *tracedShard) RestoreCheckpoint(uint64, uint64) error { return engine.ErrRemoteRestore }

func (t *tracedShard) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.oram.CloseStorage()
}

// tracedSealer times every entry into the sealer. It forwards the
// in-place and batch contracts, so the controller's fast paths stay on.
type tracedSealer struct {
	inner *blockcipher.AESSealer
	rec   *recorder
	tid   int
}

func (s *tracedSealer) Overhead() int { return s.inner.Overhead() }

func (s *tracedSealer) Seal(pt []byte) ([]byte, error) {
	defer s.rec.add(spanSeal, s.tid, time.Now())
	return s.inner.Seal(pt)
}

func (s *tracedSealer) Open(sealed []byte) ([]byte, error) {
	defer s.rec.add(spanOpen, s.tid, time.Now())
	return s.inner.Open(sealed)
}

func (s *tracedSealer) SealInto(dst, pt []byte) error {
	defer s.rec.add(spanSeal, s.tid, time.Now())
	return s.inner.SealInto(dst, pt)
}

func (s *tracedSealer) OpenInto(dst, sealed []byte) error {
	defer s.rec.add(spanOpen, s.tid, time.Now())
	return s.inner.OpenInto(dst, sealed)
}

func (s *tracedSealer) SealBatch(pts, outs [][]byte, workers int) error {
	defer s.rec.add(spanSeal, s.tid, time.Now())
	return s.inner.SealBatch(pts, outs, workers)
}

func (s *tracedSealer) OpenBatch(sealed, outs [][]byte, workers int) error {
	defer s.rec.add(spanOpen, s.tid, time.Now())
	return s.inner.OpenBatch(sealed, outs, workers)
}

// tracedFile times the storage device's charged I/O paths; the raw
// set-up paths and the accounting come from the embedded File.
type tracedFile struct {
	*device.File
	rec *recorder
	tid int
}

func (f *tracedFile) Read(slot int64, dst []byte) error {
	defer f.rec.add(spanDevRead, f.tid, time.Now())
	return f.File.Read(slot, dst)
}

func (f *tracedFile) Write(slot int64, src []byte) error {
	defer f.rec.add(spanDevWrite, f.tid, time.Now())
	return f.File.Write(slot, src)
}

func (f *tracedFile) ReadSlots(slots []int64, bufs [][]byte) error {
	defer f.rec.add(spanDevRead, f.tid, time.Now())
	return f.File.ReadSlots(slots, bufs)
}

func (f *tracedFile) WriteSlots(slots []int64, bufs [][]byte) error {
	defer f.rec.add(spanDevWrite, f.tid, time.Now())
	return f.File.WriteSlots(slots, bufs)
}

func (f *tracedFile) Sync() error {
	defer f.rec.add(spanDevWrite, f.tid, time.Now())
	return f.File.Sync()
}

// tracedKV is the okv.Backend the KV layer runs over in the traced
// pass: the engine, with a span around every backend batch.
type tracedKV struct {
	*engine.Engine
	rec *recorder
}

func (k *tracedKV) Batch(reqs []*core.Request) error {
	defer k.rec.add(spanKV, 0, time.Now())
	return k.Engine.Batch(reqs)
}

// tracerSpans is the capacity of the traced pass's obs.Tracer: large
// enough that no span of a window is dropped (horamd's default ring
// holds 65536).
const tracerSpans = 1 << 21

// newTracedStack builds the instrumented stack under dataDir.
func newTracedStack(sp spec, dataDir string) (*stack, []*model, error) {
	set := &traceSet{}
	opts := engineOptions(sp, "") // NewWithBackends keeps no engine manifest
	backends := make([]engine.ShardBackend, sp.shards)
	s := &stack{sp: sp, spans: set, tracer: obs.NewTracer(tracerSpans)}
	assembled := false
	defer func() {
		if assembled {
			return // the engine owns the shards now
		}
		for _, sh := range s.orams {
			sh.CloseStorage() // unwinding a failed construction; the construction error is the one to surface
		}
	}()
	for i := range backends {
		shardOpts, err := engine.ShardConfig(opts, i)
		if err != nil {
			return nil, nil, err
		}
		sh, err := newTracedShard(shardOpts, filepath.Join(dataDir, fmt.Sprintf("shard-%d", i)), i, set.recorder())
		if err != nil {
			return nil, nil, err
		}
		sh.oram.SetObs(s.tracer, i+1, nil)
		backends[i] = sh
		s.orams = append(s.orams, sh.oram)
	}
	eng, err := engine.NewWithBackends(opts, backends)
	if err != nil {
		return nil, nil, err
	}
	assembled = true
	if sp.kv {
		s.kvInner = &tracedKV{Engine: eng, rec: set.recorder()}
	}
	if err := s.serve(eng, false); err != nil {
		return nil, nil, err
	}
	models, err := s.seed()
	if err != nil {
		s.close()
		return nil, nil, err
	}
	return s, models, nil
}

// ivals is a set of half-open time intervals, sorted and disjoint
// once merged.
type ivals [][2]time.Duration

// merged returns the union of the intervals as a sorted disjoint list.
func (v ivals) merged() ivals {
	if len(v) == 0 {
		return nil
	}
	s := append(ivals(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	out := ivals{s[0]}
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv[0] <= last[1] {
			if iv[1] > last[1] {
				last[1] = iv[1]
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// length sums a merged list.
func (v ivals) length() time.Duration {
	var d time.Duration
	for _, iv := range v {
		d += iv[1] - iv[0]
	}
	return d
}

// overlap is the total length two merged lists have in common.
func overlap(a, b ivals) time.Duration {
	var d time.Duration
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
		if hi > lo {
			d += hi - lo
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	return d
}

// layerTimes is the traced pass's result over the measured window.
//
// Above the shard seam, where concurrency comes from connections, a
// layer's busy time is the length of the union of its spans, and its
// self time the part of that union no child span covers: wire, server,
// okv and engine self times plus the shards' union add up to the
// client's busy time when every child span lies inside its parent.
//
// Below the seam the shards run in parallel, and a union would credit
// any moment one shard spends in the sealer to the sealer alone. There
// each shard is serial, so times are sums of span durations over the
// shards: sealer, device and controller self time add up to the
// shards' summed busy time.
type layerTimes struct {
	union map[string]time.Duration // length of the union of a name's spans
	sum   map[string]time.Duration // sum of a name's span durations

	clientBusy, shardBusy                     time.Duration // unions
	wireSelf, serverSelf, okvSelf, engineSelf time.Duration
	dropped                                   int64
}

// sumSelf is the reconciliation row's left-hand side; clientBusy is
// its right-hand side.
func (lt *layerTimes) sumSelf() time.Duration {
	return lt.wireSelf + lt.serverSelf + lt.okvSelf + lt.engineSelf + lt.shardBusy
}

// shardSum is the shards' summed busy time, leafSum the part of it
// spent inside the sealer and the storage device.
func (lt *layerTimes) shardSum() time.Duration { return lt.sum[spanShard] + lt.sum[spanPad] }

func (lt *layerTimes) leafSum() time.Duration {
	return lt.sum[spanSeal] + lt.sum[spanOpen] + lt.sum[spanDevRead] + lt.sum[spanDevWrite]
}

// The program's own span names (internal/obs call sites).
const (
	progWindow   = "window"
	progKVPrefix = "kv-"
	progBatch    = "batch"
	progLevel    = "level"
)

// analyse folds the benchmark's spans and the program's tracer dump
// into layerTimes, and returns every span for the trace file.
func analyse(s *stack, calls []call) (*layerTimes, []span, error) {
	s.spans.armed.Store(false)
	s.tracer.Stop()
	var all []span
	for _, r := range s.spans.recorders {
		r.mu.Lock()
		all = append(all, r.spans...)
		r.mu.Unlock()
	}
	for _, c := range calls {
		all = append(all, span{spanClient, 100 + c.conn, c.start, c.end})
	}
	prog, err := programSpans(s.tracer)
	if err != nil {
		return nil, nil, err
	}
	all = append(all, prog...)

	lt := &layerTimes{
		union:   make(map[string]time.Duration),
		sum:     make(map[string]time.Duration),
		dropped: s.tracer.Dropped(),
	}
	by := make(map[string]ivals)
	for _, sp := range all {
		name := sp.name
		if strings.HasPrefix(name, progKVPrefix) {
			name = progKVPrefix
		}
		by[name] = append(by[name], [2]time.Duration{sp.start, sp.end})
		lt.sum[name] += sp.end - sp.start
	}
	union := func(names ...string) ivals {
		var v ivals
		for _, n := range names {
			v = append(v, by[n]...)
		}
		return v.merged()
	}
	for name := range by {
		lt.union[name] = union(name).length()
	}
	self := func(parent, child ivals) time.Duration { return parent.length() - overlap(parent, child) }

	clientU := union(spanClient)
	serverU := union(progWindow, progKVPrefix)
	batchU := union(progBatch)
	shardU := union(spanShard, spanPad)
	lt.clientBusy = clientU.length()
	lt.shardBusy = shardU.length()
	lt.wireSelf = self(clientU, serverU)
	if s.sp.kv {
		lt.okvSelf = self(serverU, batchU)
	} else {
		lt.serverSelf = self(serverU, batchU)
	}
	lt.engineSelf = self(batchU, shardU)
	return lt, all, nil
}

// chromeEvent is one chrome://tracing complete event.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"` // microseconds
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// programSpans reads the program's tracer through its own dump format.
// The tracer was started at the recorder's origin, so both span sets
// share one time base.
func programSpans(tr *obs.Tracer) ([]span, error) {
	raw, err := tr.DumpJSON()
	if err != nil {
		return nil, err
	}
	var dump struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		return nil, fmt.Errorf("tracer dump: %w", err)
	}
	out := make([]span, len(dump.TraceEvents))
	for i, ev := range dump.TraceEvents {
		start := time.Duration(ev.Ts * 1e3)
		out[i] = span{ev.Name, ev.Tid, start, start + time.Duration(ev.Dur*1e3)}
	}
	return out, nil
}

// maxTraceEvents bounds the trace file; a window can hold millions of
// seal/open spans and chrome://tracing stops being usable long before.
const maxTraceEvents = 200_000

// writeTrace writes the merged spans, earliest first, in
// chrome://tracing form.
func writeTrace(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	if len(spans) > maxTraceEvents {
		spans = spans[:maxTraceEvents]
	}
	events := make([]chromeEvent, len(spans))
	for i, sp := range spans {
		events[i] = chromeEvent{
			Name: sp.name, Ph: "X", Pid: 1, Tid: sp.tid,
			Ts: float64(sp.start) / 1e3, Dur: float64(sp.end-sp.start) / 1e3,
		}
	}
	raw, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
