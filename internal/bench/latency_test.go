package bench

import (
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/horam"
)

// TestLatencySweepSmoke runs the shard gate's workload under both
// shuffle modes and sanity-checks the direction of the
// deamortization effect: the incremental pipeline's worst single cycle
// must be well under the monolithic one's, and the totals must stay
// within a few percent (the period's work is identical; only its
// placement changes). A flat group size keeps every cycle's service
// rate equal, so the modes differ in shuffle placement alone.
func TestLatencySweepSmoke(t *testing.T) {
	byMode := map[string]engine.Summary{}
	for _, mode := range []string{"monolithic", "incremental"} {
		o := engine.Options{Blocks: 4096, BlockSize: 64, MemoryBytes: 64 << 10, Shards: 2,
			MonolithicShuffle: mode == "monolithic", Stages: []horam.Stage{{C: 3, Frac: 1}}}
		e, reqs := hotspotEngine(t, o, "latency-smoke", 1200, 32)
		lat := make([]time.Duration, len(reqs)) // virtual time from submission to completion
		for i, r := range reqs {
			lat[i] = r.DoneSim - r.SubmitSim
		}
		slices.Sort(lat)
		if p50 := lat[(len(lat)-1)/2]; p50 <= 0 {
			t.Fatalf("%s: empty latency distribution: p50 %v", mode, p50)
		}
		r := e.Stats()
		if r.Shuffles == 0 {
			t.Fatalf("%s: no shuffles; the run never exercised the period boundary", mode)
		}
		byMode[mode] = r
	}
	mono, incr := byMode["monolithic"], byMode["incremental"]
	if incr.Quanta == 0 || mono.Quanta != 0 {
		t.Fatalf("quanta: incremental %d, monolithic %d", incr.Quanta, mono.Quanta)
	}
	if incr.MaxCycleTime*2 > mono.MaxCycleTime {
		t.Fatalf("max cycle cost: incremental %v vs monolithic %v — no deamortization", incr.MaxCycleTime, mono.MaxCycleTime)
	}
	ratio := float64(incr.SimTime) / float64(mono.SimTime)
	if ratio > 1.25 || ratio < 0.8 {
		t.Fatalf("sim totals diverge: incremental %v vs monolithic %v", incr.SimTime, mono.SimTime)
	}
}
