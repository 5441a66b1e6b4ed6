package server

import (
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/okv"
)

// instruments is the server's registry-backed counter set — the state
// behind both the STATS line and the /metrics exposition. Every
// update is one atomic op, so counting happens on the hot path
// without touching Server.mu (which guards the connection map only).
// A "window" is one chunk of one connection's command: at most
// MaxBatch requests submitted to the engine at once. The window
// histogram's buckets coincide with engine.BucketFor's
// (≤1, 2, ≤4, …, ≤64, 65+), so Stats can read the classic
// [NumBuckets]int64 view straight out of it.
type instruments struct {
	accepted   *obs.Counter
	rejected   *obs.Counter
	active     *obs.Gauge
	windows    *obs.Counter   // command chunks run through the engine
	windowReqs *obs.Counter   // logical requests in them
	windowHist *obs.Histogram // chunks by size bucket (Public)
	drainTime  *obs.Histogram // wall-clock latency of one chunk (Timing)

	kvGets *obs.Counter
	kvSets *obs.Counter
	kvDels *obs.Counter
	kvTime *obs.Histogram // wall-clock KV pipeline latency (Timing)
}

// newInstruments registers the server's metric set. The Public
// declarations all reduce to the same fact: a wire adversary watching
// the plaintext TCP protocol already sees every connection, verb and
// request line, so arrival counts and window sizes reveal nothing
// beyond the traffic it tallies itself. What a wire adversary does
// NOT see — how requests scattered across shards, the hit/miss mix,
// the real-vs-pad cycle split — is never registered here.
func newInstruments(reg *obs.Registry, kv bool) instruments {
	ins := instruments{
		accepted: reg.Counter("horam_server_conns_accepted_total",
			"TCP connections accepted",
			obs.Public("connection arrivals are wire-visible")),
		rejected: reg.Counter("horam_server_conns_rejected_total",
			"connections refused over the MaxConns cap",
			obs.Public("refusals answer on the wire (ERR server busy)")),
		active: reg.Gauge("horam_server_conns_active",
			"connections currently served",
			obs.Public("open TCP connections are wire-visible")),
		windows: reg.Counter("horam_server_windows_total",
			"command chunks (at most MaxBatch requests of one connection's command) run through the engine",
			obs.Public("a window is one chunk of one wire command: its boundaries follow from the plaintext request lines and the public MaxBatch config")),
		windowReqs: reg.Counter("horam_server_window_requests_total",
			"logical requests run through the engine in command chunks",
			obs.Public("request count is wire-visible traffic volume")),
		windowHist: reg.Histogram("horam_server_window_size",
			"command chunk sizes, bucketed like the engine batch histogram",
			obs.Public("a chunk's size is min(MaxBatch, what is left of one wire command) — readable off the wire, never a function of addresses"),
			obs.BatchSizeBounds()),
		drainTime: reg.Histogram("horam_server_drain_seconds",
			"wall-clock latency of one command chunk through the engine",
			obs.Timing("wall-clock measurement; covered by the PR 7 timing gate, not snapshot equality"),
			obs.DurationBounds()),
	}
	if kv {
		ins.kvGets = reg.Counter("horam_server_kv_ops_total",
			"KV verbs served", obs.Public("verbs travel in plaintext on the wire; per-verb counts are what a wire adversary already tallies"),
			obs.Label{Key: "verb", Value: "get"})
		ins.kvSets = reg.Counter("horam_server_kv_ops_total",
			"KV verbs served", obs.Public("wire-visible verb count"),
			obs.Label{Key: "verb", Value: "set"})
		ins.kvDels = reg.Counter("horam_server_kv_ops_total",
			"KV verbs served", obs.Public("wire-visible verb count"),
			obs.Label{Key: "verb", Value: "del"})
		ins.kvTime = reg.Histogram("horam_server_kv_seconds",
			"wall-clock latency of one oblivious KV pipeline",
			obs.Timing("wall-clock measurement; the pipeline's fixed three-batch shape, not its wall time, is the oblivious property"),
			obs.DurationBounds())
	}
	return ins
}

// Stats is a snapshot of the server's serving counters. Batches and
// MeanBatch describe command chunks (a single READ/WRITE is a chunk of
// one); the observable proof of request grouping across connections
// is the per-shard drain view in PerShard and ShardHistogram.
type Stats struct {
	// Accepted and Rejected count connections; Active is the number
	// currently being served.
	Accepted int64
	Rejected int64
	Active   int64
	// Requests counts logical READ/WRITE requests completed, Batches
	// the command chunks that carried them.
	Requests  int64
	Batches   int64
	MeanBatch float64
	// Histogram counts command chunks by size bucket, in
	// engine.HistLabels order.
	Histogram [engine.NumBuckets]int64
	// PerShard is the engine's per-shard serving snapshot: queue
	// depth, scheduler-drain histogram and scheme counters per shard.
	PerShard []engine.ShardStats
	// ShardHistogram is the element-wise aggregation of the per-shard
	// drain histograms: how many requests each scheduler drain carried,
	// whichever connections they came from.
	ShardHistogram [engine.NumBuckets]int64
	// KV is the oblivious key–value layer's counters when Config.KV is
	// set (nil otherwise): live keys, capacity, and per-verb totals.
	KV *okv.Stats
}

// record accounts one successfully run command chunk.
func (s *Server) record(size int) {
	s.ins.windows.Inc()
	s.ins.windowReqs.Add(int64(size))
	s.ins.windowHist.Observe(float64(size))
}

// windowCounters samples the window-level instrument block. The
// histogram read is not atomic with the totals, but neither was the
// old mutex-guarded snapshot with respect to the engine's counters;
// per-field monotonicity is all consumers rely on.
func (s *Server) windowCounters() (st Stats) {
	st.Accepted = s.ins.accepted.Value()
	st.Rejected = s.ins.rejected.Value()
	st.Requests = s.ins.windowReqs.Value()
	st.Batches = s.ins.windows.Value()
	for i := 0; i < engine.NumBuckets; i++ {
		st.Histogram[i] = s.ins.windowHist.Bucket(i)
	}
	return st
}

// Stats returns a snapshot of the serving counters, including the
// per-shard view and its aggregation. The window counters are sampled
// BEFORE the shard counters: a shard accounts its drain before the
// drain's futures resolve, which is before record() counts the chunk
// — so sampling in this order keeps a snapshot under live traffic
// causally consistent (per-shard sums can only lead the window
// totals, never trail them).
func (s *Server) Stats() Stats {
	st := s.windowCounters()
	s.mu.Lock()
	st.Active = int64(len(s.conns))
	s.mu.Unlock()
	st.PerShard = s.engine.ShardStats()
	hists := make([][engine.NumBuckets]int64, len(st.PerShard))
	for i, sh := range st.PerShard {
		hists[i] = sh.Hist
	}
	st.ShardHistogram = engine.SumHists(hists...)
	if st.Batches > 0 {
		st.MeanBatch = float64(st.Requests) / float64(st.Batches)
	}
	if s.kv != nil {
		kv := s.kv.Stats()
		st.KV = &kv
	}
	return st
}

// HistogramString renders the command-chunk size histogram for logs.
func (st Stats) HistogramString() string { return engine.FormatHist(st.Histogram) }

// appendDuration renders d as seconds with nanosecond precision plus
// an "s" suffix ("0.002000000s") — allocation-free, and still
// accepted by time.ParseDuration, which client.ParseStats uses to
// read max_cycle/simtime back off a STATS line.
func appendDuration(dst []byte, d time.Duration) []byte {
	dst = strconv.AppendFloat(dst, d.Seconds(), 'f', 9, 64)
	return append(dst, 's')
}

// appendStatsLine renders the STATS response into dst: aggregate
// engine counters, the server's command-chunk counters, and
// one group of keys per shard (queue depth, cycles, leveling pad
// cycles, drains, drain-size histogram). The shard_hist key is the
// element-wise aggregation of the per-shard histograms, so consumers
// that only want the old single-histogram view still get one — built
// from the per-shard truth.
//
// The build is allocation-free in the steady state (strconv.Append*
// into a reused buffer, engine.ShardStatsInto into a reused slice):
// a monitoring loop polling STATS must not perturb the zero-alloc
// serving path — TestStatsLineAllocs enforces it.
func (s *Server) appendStatsLine(dst []byte) []byte {
	sum := s.engine.Stats()
	st := s.windowCounters()
	s.mu.Lock()
	st.Active = int64(len(s.conns))
	s.mu.Unlock()

	if s.statsShards == nil {
		s.statsShards = make([]engine.ShardStats, s.engine.Shards())
	}
	s.engine.ShardStatsInto(s.statsShards)
	var shardHist [engine.NumBuckets]int64
	for _, sh := range s.statsShards {
		for i, n := range sh.Hist {
			shardHist[i] += n
		}
	}
	mean := 0.0
	if st.Batches > 0 {
		mean = float64(st.Requests) / float64(st.Batches)
	}

	dst = append(dst, "OK requests="...)
	dst = strconv.AppendInt(dst, sum.Requests, 10)
	dst = append(dst, " hits="...)
	dst = strconv.AppendInt(dst, sum.Hits, 10)
	dst = append(dst, " misses="...)
	dst = strconv.AppendInt(dst, sum.Misses, 10)
	dst = append(dst, " shuffles="...)
	dst = strconv.AppendInt(dst, sum.Shuffles, 10)
	dst = append(dst, " quanta="...)
	dst = strconv.AppendInt(dst, sum.Quanta, 10)
	dst = append(dst, " max_cycle="...)
	dst = appendDuration(dst, sum.MaxCycleTime)
	dst = append(dst, " simtime="...)
	dst = appendDuration(dst, sum.SimTime)
	dst = append(dst, " shards="...)
	dst = strconv.AppendInt(dst, int64(sum.Shards), 10)
	dst = append(dst, " conns="...)
	dst = strconv.AppendInt(dst, st.Accepted, 10)
	dst = append(dst, " active="...)
	dst = strconv.AppendInt(dst, st.Active, 10)
	dst = append(dst, " rejected="...)
	dst = strconv.AppendInt(dst, st.Rejected, 10)
	dst = append(dst, " batches="...)
	dst = strconv.AppendInt(dst, st.Batches, 10)
	dst = append(dst, " mean_batch="...)
	dst = strconv.AppendFloat(dst, mean, 'f', 2, 64)
	dst = append(dst, " hist="...)
	dst = engine.AppendHist(dst, st.Histogram)
	dst = append(dst, " shard_hist="...)
	dst = engine.AppendHist(dst, shardHist)

	if s.kv != nil {
		kv := s.kv.Stats()
		dst = append(dst, " kv_count="...)
		dst = strconv.AppendInt(dst, kv.Count, 10)
		dst = append(dst, " kv_capacity="...)
		dst = strconv.AppendInt(dst, kv.Capacity, 10)
		dst = append(dst, " kv_gets="...)
		dst = strconv.AppendInt(dst, kv.Gets, 10)
		dst = append(dst, " kv_sets="...)
		dst = strconv.AppendInt(dst, kv.Sets, 10)
		dst = append(dst, " kv_dels="...)
		dst = strconv.AppendInt(dst, kv.Dels, 10)
		dst = append(dst, " kv_misses="...)
		dst = strconv.AppendInt(dst, kv.Misses, 10)
	}

	for _, sh := range s.statsShards {
		id := int64(sh.Shard)
		dst = append(dst, " s"...)
		dst = strconv.AppendInt(dst, id, 10)
		dst = append(dst, "_depth="...)
		dst = strconv.AppendInt(dst, int64(sh.QueueDepth), 10)
		dst = append(dst, " s"...)
		dst = strconv.AppendInt(dst, id, 10)
		dst = append(dst, "_cycles="...)
		dst = strconv.AppendInt(dst, sh.Cycles, 10)
		dst = append(dst, " s"...)
		dst = strconv.AppendInt(dst, id, 10)
		dst = append(dst, "_pad="...)
		dst = strconv.AppendInt(dst, sh.PadCycles, 10)
		dst = append(dst, " s"...)
		dst = strconv.AppendInt(dst, id, 10)
		dst = append(dst, "_quanta="...)
		dst = strconv.AppendInt(dst, sh.ShuffleQuanta, 10)
		dst = append(dst, " s"...)
		dst = strconv.AppendInt(dst, id, 10)
		dst = append(dst, "_maxcycle="...)
		dst = appendDuration(dst, sh.MaxCycleTime)
		dst = append(dst, " s"...)
		dst = strconv.AppendInt(dst, id, 10)
		dst = append(dst, "_batches="...)
		dst = strconv.AppendInt(dst, sh.Batches, 10)
		dst = append(dst, " s"...)
		dst = strconv.AppendInt(dst, id, 10)
		dst = append(dst, "_reqs="...)
		dst = strconv.AppendInt(dst, sh.Requests, 10)
		dst = append(dst, " s"...)
		dst = strconv.AppendInt(dst, id, 10)
		dst = append(dst, "_hist="...)
		dst = engine.AppendHist(dst, sh.Hist)
	}
	return dst
}

// writeStats renders one STATS response into the connection writer,
// reusing the server's scratch buffer (statsMu serialises polls; the
// serving path never takes it).
func (s *Server) writeStats(w interface{ Write([]byte) (int, error) }) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	s.statsBuf = s.appendStatsLine(s.statsBuf[:0])
	s.statsBuf = append(s.statsBuf, '\n')
	w.Write(s.statsBuf) //horam:errok buffered writer; the flush in handle surfaces the error
}
