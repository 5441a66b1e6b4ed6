package server

import (
	"repro/internal/obs"
	"repro/internal/okv"
)

// instruments is the server's registry-backed counter set — the state
// behind both the STATS line and the /metrics exposition. Every
// update is one atomic op, so counting happens on the hot path
// without touching Server.mu (which guards the connection map only).
// A "window" is one chunk of one connection's command: at most
// MaxBatch requests submitted to the engine at once.
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
// NOT see — how full the KV table is, how many lookups missed — is
// registered Trusted: STATS shows it, /metrics never does.
func newInstruments(reg *obs.Registry, kv *okv.Store) instruments {
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
	if kv != nil {
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
		table := obs.Trusted("how many keys live in the table and how many lookups missed depend on the keys clients chose; operator STATS only")
		reg.GaugeFunc("horam_kv_count", "live keys in the KV table", table,
			func() int64 { return kv.Stats().Count })
		reg.GaugeFunc("horam_kv_capacity", "key slots in the KV table", table,
			func() int64 { return kv.Stats().Capacity })
		reg.GaugeFunc("horam_kv_misses", "KV gets and deletes of an absent key", table,
			func() int64 { return kv.Stats().Misses })
	}
	return ins
}

// Stats is a snapshot of the server's serving counters. Batches and
// MeanBatch describe command chunks (a single READ/WRITE is a chunk of
// one); the observable proof of request grouping across connections
// is the engine's per-shard drain view (engine.ShardStats and the
// horam_shard_drain_size series on STATS).
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

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Accepted: s.ins.accepted.Value(),
		Rejected: s.ins.rejected.Value(),
		Requests: s.ins.windowReqs.Value(),
		Batches:  s.ins.windows.Value(),
	}
	s.mu.Lock()
	st.Active = int64(len(s.conns))
	s.mu.Unlock()
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
func (s *Server) HistogramString() string { return s.ins.windowHist.BucketString() }

// writeStats renders one STATS response — "OK" and one series=value
// token per sample of the registry, every class included — into the
// connection writer, reusing the server's scratch buffer (statsMu
// serialises polls; the serving path never takes it). The render is
// allocation-free once the buffer is warm: a monitoring loop polling
// STATS must not perturb the zero-alloc serving path.
//
// Series render in registry (name) order, and that order carries an
// invariant: the server's window totals (horam_server_*) are sampled
// before the engine's per-shard drain counters (horam_shard_*). A
// shard accounts its drain before the drain's futures resolve, which
// is before record() counts the chunk, so under live traffic the
// per-shard sums can only lead the window totals, never trail them.
func (s *Server) writeStats(w interface{ Write([]byte) (int, error) }) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	s.statsBuf = s.reg.AppendStats(append(s.statsBuf[:0], "OK"...))
	s.statsBuf = append(s.statsBuf, '\n')
	w.Write(s.statsBuf) //horam:errok buffered writer; the flush in handle surfaces the error
}
