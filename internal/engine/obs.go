// Observability wiring for the sharded engine: metric registration
// with the leak-audit declarations, and the request-path tracer hooks.
//
// What may be Public here is exactly what the leveling argument in
// the package doc makes workload-independent: per-shard cumulative
// cycle counts are leveled at batch boundaries, and the deamortized
// shuffle schedule (shuffles, quanta) is a deterministic function of
// the cycle index, so at quiescence all of them are functions of the
// one public quantity a single unsharded instance already reveals.
// Per-shard REQUEST routing (batches, requests, queue depth, the
// real-vs-pad cycle split) reflects the workload's address collision
// structure — the very channel leveling exists to close — and is
// registered Trusted: those numbers show on the trusted STATS surface
// only, never on /metrics or in the audit.
package engine

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/blockcipher"
	"repro/internal/core"
	"repro/internal/obs"
)

// Observe registers the engine's metrics on reg and wires tr into the
// request path (batch, level and drain spans; per-shard quantum spans
// via core/horam). Either argument may be nil. Call once, before the
// engine serves traffic; registering the same engine on the same
// registry twice panics (duplicate series), exactly like any other
// misregistration.
func (e *Engine) Observe(reg *obs.Registry, tr *obs.Tracer) {
	e.tracer = tr
	var quantum *obs.Histogram
	if reg != nil {
		e.obsBatches = reg.Counter("horam_engine_batches_total",
			"logical batches submitted to the engine",
			obs.Public("one increment per client Batch call; arrival counts are wire-visible to the adversary"))
		e.obsOps = reg.Counter("horam_engine_ops_total",
			"logical read/write requests submitted",
			obs.Public("request count is the workload size the adversary model always grants; nothing about addresses"))
		e.obsLevels = reg.Counter("horam_engine_level_passes_total",
			"cross-shard cycle leveling passes",
			obs.Public("one pass per batch quiescence point; follows from the wire-visible arrival pattern, not from addresses"))
		e.batchHist = reg.Histogram("horam_engine_batch_seconds",
			"wall-clock latency of Engine.Batch",
			obs.Timing("wall-clock measurement; covered by the PR 7 timing gate, not snapshot equality"),
			obs.DurationBounds())
		e.levelHist = reg.Histogram("horam_engine_level_seconds",
			"wall-clock latency of a leveling pass",
			obs.Timing("wall-clock measurement"),
			obs.DurationBounds())
		quantum = reg.Histogram("horam_shuffle_quantum_seconds",
			"wall-clock duration of one incremental shuffle quantum",
			obs.Timing("wall-clock measurement"),
			obs.DurationBounds())
		// One scheme-counter read per shard per render: the collector
		// refreshes scheme before any series below is read, so a render
		// costs each backend (for a remote shard, each node round
		// trip) one Stats call however many series it feeds.
		scheme := &schemeStats{st: make([]core.Stats, len(e.shards))}
		reg.Collect(func() {
			for i, sh := range e.shards {
				st := sh.backend.Stats()
				scheme.mu.Lock()
				scheme.st[i] = st
				scheme.mu.Unlock()
			}
		})
		for i, sh := range e.shards {
			label := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
			backend := sh.backend
			reg.GaugeFunc("horam_shard_cycles",
				"cumulative scheduler cycles run by the shard (dummy leveling cycles included)",
				obs.Public("leveled at batch boundaries: equal across shards at quiescence, so it reveals only the global cycle count a single instance already shows"),
				func() int64 {
					n, err := backend.Cycles()
					if err != nil {
						return -1
					}
					return n
				}, label)
			reg.GaugeFunc("horam_shard_shuffles",
				"completed shuffle periods on the shard",
				obs.Public("the shuffle schedule is a deterministic function of the cycle index (PR 4), which is leveled"),
				scheme.gauge(i, func(st core.Stats) int64 { return st.Shuffles }), label)
			reg.GaugeFunc("horam_shard_quanta",
				"incremental shuffle quanta executed on the shard",
				obs.Public("quantum schedule is a deterministic function of the cycle index, which is leveled"),
				scheme.gauge(i, func(st core.Stats) int64 { return st.ShuffleQuanta }), label)
			sh.observe(reg, scheme, i, label)
		}
		reg.GaugeFunc("horam_sealer_sealed_bytes",
			"plaintext bytes sealed, process-wide",
			obs.Timing("process-global throughput total (accumulates across every sealer in the process); telemetry, not a per-workload observable"),
			func() int64 { sealed, _ := blockcipher.Throughput(); return sealed })
		reg.GaugeFunc("horam_sealer_opened_bytes",
			"sealed bytes opened, process-wide",
			obs.Timing("process-global throughput total"),
			func() int64 { _, opened := blockcipher.Throughput(); return opened })
	}
	for i, sh := range e.shards {
		sh.tracer = tr
		if sh.client != nil {
			sh.client.SetObs(tr, i+1, quantum)
		}
	}
}

// schemeStats holds every shard's scheme counters as Observe's
// collector last read them.
type schemeStats struct {
	mu sync.Mutex
	st []core.Stats
}

// gauge reads one field of shard i's counters.
func (c *schemeStats) gauge(i int, field func(core.Stats) int64) func() int64 {
	return func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return field(c.st[i])
	}
}

// observe registers the shard's Trusted series: what its scheduler
// drained and its scheme counters (shard i of scheme). Requests routed
// to a shard, its hit/miss mix and its pad cycles reveal the
// workload's address collision structure.
func (sh *shard) observe(reg *obs.Registry, scheme *schemeStats, i int, label obs.Label) {
	routing := obs.Trusted("per-shard request routing and the real-vs-pad cycle split reflect the workload's address collisions; operator STATS only")
	mix := obs.Trusted("the shard's hit/miss mix and cycle timing depend on the addresses requested; operator STATS only")
	locked := func(v *int64) func() int64 {
		return func() int64 {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return *v
		}
	}
	reg.GaugeFunc("horam_shard_drains", "scheduler drains the shard ran", routing, locked(&sh.batches), label)
	reg.GaugeFunc("horam_shard_drained_requests", "logical requests the shard's scheduler drained", routing, locked(&sh.requests), label)
	reg.GaugeFunc("horam_shard_pad_cycles", "dummy cycles leveling ran on the shard (a subset of horam_shard_cycles)", routing, locked(&sh.padCycles), label)
	reg.GaugeFunc("horam_shard_queue_depth", "requests queued on the shard but not yet drained", routing,
		func() int64 { return int64(sh.depth()) }, label)
	sizes := reg.Histogram("horam_shard_drain_size", "scheduler drains by the number of requests they carried", routing,
		obs.BatchSizeBounds(), label)
	reg.GaugeFunc("horam_shard_requests", "logical requests the shard's scheme served", mix,
		scheme.gauge(i, func(st core.Stats) int64 { return st.Requests }), label)
	reg.GaugeFunc("horam_shard_hits", "requests served from the memory tier", mix,
		scheme.gauge(i, func(st core.Stats) int64 { return st.Hits }), label)
	reg.GaugeFunc("horam_shard_misses", "requests that loaded their block from storage", mix,
		scheme.gauge(i, func(st core.Stats) int64 { return st.Misses }), label)
	reg.GaugeFunc("horam_shard_max_cycle_ns", "the shard's costliest scheduler cycle, in simulated nanoseconds", mix,
		scheme.gauge(i, func(st core.Stats) int64 { return int64(st.MaxCycleTime) }), label)
	reg.GaugeFunc("horam_shard_sim_ns", "the shard's simulated clock, in nanoseconds", mix,
		scheme.gauge(i, func(st core.Stats) int64 { return int64(st.SimulatedTime) }), label)
	sh.mu.Lock()
	sh.drainSizes = sizes
	sh.mu.Unlock()
}

// observeBatch is Batch's instrumentation epilogue.
func (e *Engine) observeBatch(n int, start time.Time, sp obs.Span) {
	e.obsBatches.Inc()
	e.obsOps.Add(int64(n))
	if e.batchHist != nil {
		e.batchHist.ObserveDuration(time.Since(start))
	}
	sp.End(obs.Arg{Key: "size", Val: int64(n)})
}
