package bench

import (
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/horam"
)

// TestLatencySweepSmoke runs the shard gate's workload and checks the
// deamortization effect on every shard: quanta ran, and the worst
// single cycle costs at most half of one period's shuffle time — a
// shuffle that lands whole inside the cycle exhausting the miss budget
// cannot meet that. A flat group size keeps every cycle's service rate
// equal, so the costliest cycle is set by shuffle placement alone.
func TestLatencySweepSmoke(t *testing.T) {
	o := engine.Options{Blocks: 4096, BlockSize: 64, MemoryBytes: 64 << 10, Shards: 2,
		Stages: []horam.Stage{{C: 3, Frac: 1}}}
	e, reqs := hotspotEngine(t, o, "latency-smoke", 1200, 32)
	lat := make([]time.Duration, len(reqs)) // virtual time from submission to completion
	for i, r := range reqs {
		lat[i] = r.DoneSim - r.SubmitSim
	}
	slices.Sort(lat)
	if p50 := lat[(len(lat)-1)/2]; p50 <= 0 {
		t.Fatalf("empty latency distribution: p50 %v", p50)
	}
	if q := e.Stats().Quanta; q == 0 {
		t.Fatal("no shuffle quanta ran")
	}
	for i := 0; i < o.Shards; i++ {
		st := e.Backend(i).Stats()
		if st.Shuffles == 0 {
			t.Fatalf("shard %d: no shuffles; the run never exercised the period boundary", i)
		}
		if perPeriod := st.ShuffleTime / time.Duration(st.Shuffles); 2*st.MaxCycleTime > perPeriod {
			t.Fatalf("shard %d: max cycle cost %v exceeds half a period's shuffle time %v — no deamortization",
				i, st.MaxCycleTime, perPeriod)
		}
		t.Logf("shard %d: %d periods, max cycle %v, shuffle time %v per period", i, st.Shuffles, st.MaxCycleTime, st.ShuffleTime/time.Duration(st.Shuffles))
	}
}
