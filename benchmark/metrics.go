package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. Names and units are the contract:
// BENCHMARK.json lists exactly these, and bench_test.go holds the two
// lists equal.
type metric struct {
	name  string
	unit  string
	value float64
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is how the benchmark's contract
// defines run-to-run spread. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0: a layer a workload does not exercise
// reports zeros, not NaNs.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// slices is how many equal parts a window is cut into for ops_per_s:
// the rate is computed per slice and the median over the slices
// reported, so a stall — a noisy neighbour, a GC cycle, a scheduling
// hiccup — moves the slices it falls in and not the run's result.
const slices = 10

func median(v []float64) float64 {
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// endToEnd derives the metrics a user of the system sees from one
// untraced window. A call counts in the slice it completes in.
func endToEnd(m *measured, setupS, spaceAmp float64) []metric {
	width := m.wall / slices
	rate := make([]float64, slices)
	lat := make([]float64, len(m.calls))
	for i, c := range m.calls {
		rate[min(int(c.end/width), slices-1)] += float64(c.ops) / width.Seconds()
		lat[i] = ms(c.end - c.start)
	}
	sort.Float64s(lat)
	sim := (m.after.eng.SimTime - m.before.eng.SimTime).Seconds()
	return []metric{
		{"setup_s", "s", setupS},
		{"ops_per_s", "ops/s", median(rate)},
		{"lat_p50_ms", "ms", percentile(lat, 50)},
		{"sim_ops_per_s", "ops/sim-s", ratio(float64(m.ops), sim)},
		{"space_amp", "ratio", spaceAmp},
	}
}

// snapshotTimes is the checkpoint-and-restore step's cost.
type snapshotTimes struct {
	checkpoint, restore time.Duration
	bytes               int64
}

// perLayer derives the layer metrics: counts and ratios from the
// counter deltas of the untraced window u, times from the traced
// window t and its span analysis lt, rates from the isolated probes.
// Times are per logical op of their own window, so windows of
// different length and throughput stay comparable.
func perLayer(sp spec, u, t *measured, lt *layerTimes, pr probeRates, snap snapshotTimes) []metric {
	a, b := u.after, u.before
	ops := float64(u.ops)
	prom := func(series string) float64 { return a.prom[series] - b.prom[series] }
	usPerOp := func(d time.Duration) float64 { return ratio(float64(d)/1e3, float64(t.ops)) }

	var drains, drained, minReqs, maxReqs, dummyIO, served, misses float64
	var maxCycle time.Duration
	for i := range a.shards {
		reqs := float64(a.shards[i].Requests - b.shards[i].Requests)
		drains += float64(a.shards[i].Batches - b.shards[i].Batches)
		drained += reqs
		if i == 0 || reqs < minReqs {
			minReqs = reqs
		}
		maxReqs = max(maxReqs, reqs)
		dummyIO += float64(a.scheme[i].DummyIO - b.scheme[i].DummyIO)
		served += float64(a.scheme[i].Requests - b.scheme[i].Requests)
		misses += float64(a.scheme[i].Misses - b.scheme[i].Misses)
		maxCycle = max(maxCycle, a.scheme[i].MaxCycleTime)
	}
	cycles := float64(a.eng.Cycles - b.eng.Cycles)
	pads := float64(a.eng.Padded - b.eng.Padded)
	engBatches := prom("horam_engine_batches_total")
	engOps := prom("horam_engine_ops_total")
	kvOps := float64((a.kv.Gets + a.kv.Sets + a.kv.Dels) - (b.kv.Gets + b.kv.Sets + b.kv.Dels))
	windows := prom("horam_server_windows_total")
	drainS := prom("horam_server_drain_seconds_sum")
	reads := float64(a.stor.Reads - b.stor.Reads)
	uOps, tOps := float64(u.ops)/u.wall.Seconds(), float64(t.ops)/t.wall.Seconds()
	lat := make([]float64, len(u.calls))
	for i, c := range u.calls {
		lat[i] = ms(c.end - c.start)
	}
	sort.Float64s(lat)
	var backendMean float64 // requests per engine batch, when okv is what issues them
	if sp.kv {
		backendMean = ratio(engOps, engBatches)
	}

	return []metric{
		{"client.calls", "count", float64(len(u.calls))},
		{"client.call_us_per_op", "us/op", usPerOp(lt.clientBusy)},
		{"client.errors", "count", float64(u.failed)},
		{"client.lat_p95_ms", "ms", percentile(lat, 95)},

		{"server.windows", "count", windows},
		{"server.window_mean_ops", "ops", ratio(prom("horam_server_window_requests_total"), windows)},
		{"server.drain_us_per_op", "us/op", ratio(drainS*1e6, ops)},
		{"server.idle_share", "ratio", 1 - drainS/u.wall.Seconds()},
		{"server.kv_us_per_op", "us/op", ratio(prom("horam_server_kv_seconds_sum")*1e6, ops)},
		{"server.wire_self_us_per_op", "us/op", usPerOp(lt.wireSelf)},
		{"server.self_us_per_op", "us/op", usPerOp(lt.serverSelf)},

		{"okv.ops", "count", kvOps},
		{"okv.misses", "count", float64(a.kv.Misses - b.kv.Misses)},
		{"okv.blocks_per_op", "blocks/op", ratio(engOps, kvOps)},
		{"okv.backend_batches_per_op", "batches/op", ratio(engBatches, kvOps)},
		{"okv.backend_batch_mean_reqs", "reqs", backendMean},
		{"okv.backend_us_per_op", "us/op", usPerOp(lt.union[spanKV])},
		{"okv.self_us_per_op", "us/op", usPerOp(lt.okvSelf)},

		{"engine.batches", "count", engBatches},
		{"engine.batch_us_per_op", "us/op", usPerOp(lt.union[progBatch])},
		{"engine.level_passes", "count", prom("horam_engine_level_passes_total")},
		{"engine.level_us_per_op", "us/op", usPerOp(lt.union[progLevel])},
		{"engine.cycles", "count", cycles},
		{"engine.pad_cycles", "count", pads},
		{"engine.pad_share", "ratio", ratio(pads, cycles)},
		{"engine.shard_imbalance", "ratio", ratio(maxReqs, minReqs)},
		{"engine.self_us_per_op", "us/op", usPerOp(lt.engineSelf)},

		{"shard.drains", "count", drains},
		{"shard.drain_mean_reqs", "reqs", ratio(drained, drains)},
		{"shard.batch_us_per_op", "us/op", usPerOp(lt.sum[spanShard])},
		{"shard.pad_us_per_op", "us/op", usPerOp(lt.sum[spanPad])},
		{"shard.cycles_per_op", "cycles/op", ratio(cycles, ops)},
		{"shard.hit_ratio", "ratio", 1 - ratio(misses, served)},
		{"shard.dummy_io", "count", dummyIO},
		{"shard.shuffles", "count", float64(a.eng.Shuffles - b.eng.Shuffles)},
		{"shard.quanta", "count", float64(a.eng.Quanta - b.eng.Quanta)},
		{"shard.max_cycle_sim_ms", "ms", ms(maxCycle)},
		{"shard.sim_us_per_op", "us/op", ratio(float64(a.eng.SimTime-b.eng.SimTime)/1e3, ops)},
		{"shard.parallelism", "ratio", ratio(float64(lt.shardSum()), float64(lt.shardBusy))},
		{"shard.controller_self_us_per_op", "us/op", usPerOp(lt.shardSum() - lt.leafSum())},

		{"blockcipher.bytes_sealed_per_op", "B/op", ratio(float64(a.sealed-b.sealed), ops)},
		{"blockcipher.bytes_opened_per_op", "B/op", ratio(float64(a.opened-b.opened), ops)},
		{"blockcipher.seal_us_per_op", "us/op", usPerOp(lt.sum[spanSeal])},
		{"blockcipher.open_us_per_op", "us/op", usPerOp(lt.sum[spanOpen])},
		{"blockcipher.seal_mb_per_s", "MB/s", pr.sealMBs},
		{"blockcipher.open_mb_per_s", "MB/s", pr.openMBs},

		{"device.reads", "count", reads},
		{"device.writes", "count", float64(a.stor.Writes - b.stor.Writes)},
		{"device.bytes_read_per_op", "B/op", ratio(float64(a.stor.BytesRead-b.stor.BytesRead), ops)},
		{"device.bytes_written_per_op", "B/op", ratio(float64(a.stor.BytesWritten-b.stor.BytesWritten), ops)},
		{"device.seq_read_share", "ratio", ratio(float64(a.stor.SeqReads-b.stor.SeqReads), reads)},
		{"device.syncs", "count", float64(a.syncs - b.syncs)},
		{"device.read_us_per_op", "us/op", usPerOp(lt.sum[spanDevRead])},
		{"device.write_us_per_op", "us/op", usPerOp(lt.sum[spanDevWrite])},
		{"device.readslots_mb_per_s", "MB/s", pr.readMBs},
		{"device.writeslots_mb_per_s", "MB/s", pr.writeMBs},

		{"snapshot.checkpoint_ms", "ms", ms(snap.checkpoint)},
		{"snapshot.restore_ms", "ms", ms(snap.restore)},
		{"snapshot.bytes", "B", float64(snap.bytes)},

		{"process.cpu_ms_per_op", "ms/op", ratio(ms(a.cpu-b.cpu), ops)},
		{"process.allocs_per_op", "allocs/op", ratio(float64(a.mallocs-b.mallocs), ops)},
		{"process.gc_pause_us_per_op", "us/op", ratio(float64(a.gcPause-b.gcPause)/1e3, ops)},
		{"process.rss_peak_mb", "MB", peakRSSMB()},

		{"trace.overhead_pct", "%", 100 * (uOps - tOps) / uOps},
		{"trace.layers_over_client", "ratio", ratio(float64(lt.sumSelf()), float64(lt.clientBusy))},
		{"trace.dropped_spans", "count", float64(lt.dropped)},
	}
}
