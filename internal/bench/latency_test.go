package bench

import "testing"

// TestLatencySweepSmoke runs a miniature latency sweep end to end and
// sanity-checks the direction of the deamortization effect: the
// incremental pipeline's worst single cycle must be well under the
// monolithic one's, and the totals must stay within a few percent
// (the period's work is identical; only its placement changes).
func TestLatencySweepSmoke(t *testing.T) {
	p := LatencyParams{
		Blocks:    4096,
		BlockSize: 64,
		MemBytes:  64 << 10,
		Requests:  1200,
		BatchSize: 32,
		Shards:    []int{2},
		Seed:      "latency-smoke",
	}
	rows, err := RunLatency(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	byMode := map[string]LatencyRow{}
	for _, r := range rows {
		if r.SimMax <= 0 || r.SimP99 <= 0 || r.SimP50 <= 0 {
			t.Fatalf("%s: empty latency distribution: %+v", r.Mode, r)
		}
		if r.Shuffles == 0 {
			t.Fatalf("%s: no shuffles; the sweep never exercised the period boundary", r.Mode)
		}
		byMode[r.Mode] = r
	}
	mono, incr := byMode["monolithic"], byMode["incremental"]
	if incr.Quanta == 0 || mono.Quanta != 0 {
		t.Fatalf("quanta: incremental %d, monolithic %d", incr.Quanta, mono.Quanta)
	}
	if incr.MaxCycleTime*2 > mono.MaxCycleTime {
		t.Fatalf("max cycle cost: incremental %v vs monolithic %v — no deamortization", incr.MaxCycleTime, mono.MaxCycleTime)
	}
	ratio := float64(incr.SimTotal) / float64(mono.SimTotal)
	if ratio > 1.25 || ratio < 0.8 {
		t.Fatalf("sim totals diverge: incremental %v vs monolithic %v", incr.SimTotal, mono.SimTotal)
	}
}
