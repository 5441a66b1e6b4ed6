package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// smallParams shrinks an experiment so the unit tests stay fast while
// preserving the geometry ratios (data : memory = 8 : 1).
func smallParams() Params {
	return Params{
		Name:        "small",
		DataBytes:   4 << 20,
		MemoryBytes: 512 << 10,
		BlockSize:   1 << 10,
		Requests:    3000,
		HotFrac:     0.8,
		HotSize:     0.01,
		Z:           4,
		Seed:        "bench-test",
	}
}

// raceSized returns p as is, or under the race detector with its data,
// memory and request counts divided by f. The data : memory ratio,
// block size and hotspot shape stay, so each sweep keeps its shape;
// non-race runs keep every size.
func raceSized(p Params, f int) Params {
	if !raceEnabled {
		return p
	}
	p.DataBytes /= int64(f)
	p.MemoryBytes /= int64(f)
	p.Requests /= f
	return p
}

func TestComparisonShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison experiment is slow")
	}
	c, err := RunComparison(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	// Shape assertions per the paper's Tables 5-3/5-4: H-ORAM wins by
	// an order of magnitude and issues several-fold fewer I/Os.
	if c.Speedup < 3 {
		t.Fatalf("H-ORAM speedup = %.1fx, want ≥3x (paper: ~20x at full scale)", c.Speedup)
	}
	if c.IORatio < 2 || c.IORatio > 6 {
		t.Fatalf("I/O reduction = %.1fx, want within [2,6] (paper: 3.5-3.8x)", c.IORatio)
	}
	if c.HORAM.TotalTime >= c.Path.TotalTime {
		t.Fatal("H-ORAM not faster than the baseline")
	}
	if c.HORAM.Shuffles == 0 {
		t.Fatal("H-ORAM never shuffled; the experiment did not cross a period")
	}
	// The paper stores 1x data + memory for H-ORAM vs ~1.875x for the
	// baseline: H-ORAM's storage footprint must be materially smaller.
	if c.HORAM.StorageBytes >= c.Path.StorageBytes {
		t.Fatalf("H-ORAM storage %d not below baseline %d", c.HORAM.StorageBytes, c.Path.StorageBytes)
	}
	out := FormatComparison(c)
	for _, want := range []string{"H-ORAM", "Path ORAM", "Number of I/O Access", "Total Time"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatComparison missing %q:\n%s", want, out)
		}
	}
}

func TestFigure51GridShape(t *testing.T) {
	f := RunFigure51()
	if len(f.Gains) != len(f.Ratios) {
		t.Fatal("grid rows mismatch")
	}
	// Anchor: c=4, N/n=8 ≈ 8x (paper's quoted point).
	var at8c4 float64
	for i, r := range f.Ratios {
		for j, c := range f.Cs {
			if r == 8 && c == 4 {
				at8c4 = f.Gains[i][j]
			}
		}
	}
	if at8c4 < 7 || at8c4 > 9 {
		t.Fatalf("gain(N/n=8, c=4) = %.2f, want ≈8", at8c4)
	}
	// Peak in the paper's 12-16x band.
	peak := 0.0
	for i := range f.Gains {
		for j := range f.Gains[i] {
			if f.Gains[i][j] > peak {
				peak = f.Gains[i][j]
			}
		}
	}
	if peak < 12 || peak > 17 {
		t.Fatalf("peak gain %.1f outside the paper's 12-16x band", peak)
	}
	if !strings.Contains(FormatFigure51(f), "c=4") {
		t.Error("FormatFigure51 missing c=4 column")
	}
}

func TestTable51Format(t *testing.T) {
	out := FormatTable51()
	for _, want := range []string{"262144", "4.5 KB", "16 KB", "1.875", "32x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5-1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable52Measurements(t *testing.T) {
	rows, err := RunTable52()
	if err != nil {
		t.Fatal(err)
	}
	var hdd *Table52Row
	for i := range rows {
		if rows[i].Profile.Name == "hdd" {
			hdd = &rows[i]
		}
	}
	if hdd == nil {
		t.Fatal("no hdd row")
	}
	// Calibration targets from the paper's Table 5-2.
	if hdd.SeqReadMBps < 92 || hdd.SeqReadMBps > 113 {
		t.Fatalf("hdd seq read %.1f MB/s, want ≈102.7", hdd.SeqReadMBps)
	}
	if hdd.SeqWriteMBps < 50 || hdd.SeqWriteMBps > 61 {
		t.Fatalf("hdd seq write %.1f MB/s, want ≈55.2", hdd.SeqWriteMBps)
	}
	if hdd.SeqOverRandom < 2 {
		t.Fatalf("hdd seq/rand = %.1f, want > 2", hdd.SeqOverRandom)
	}
	if !strings.Contains(FormatTable52(rows), "hdd") {
		t.Error("format missing hdd row")
	}
}

func TestSeqVsRandObservation(t *testing.T) {
	r, err := RunSeqVsRand()
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio < 5 || r.Ratio > 40 {
		t.Fatalf("random/sequential = %.1fx, want 5-40x (paper observes 10-20x)", r.Ratio)
	}
	if r.Sequential <= 0 || r.Random <= r.Sequential {
		t.Fatalf("nonsensical measurement: %+v", r)
	}
}

func TestPartialShuffleTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("partial shuffle sweep is slow")
	}
	rows, err := runPartialShuffle(raceSized(partialShuffleParams(), 4), []float64{1, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	full, quarter := rows[0], rows[1]
	// Partial shuffle must reshuffle fewer partitions per period.
	fullRate := float64(full.PartShuffled) / float64(full.Shuffles)
	quarterRate := float64(quarter.PartShuffled) / float64(quarter.Shuffles)
	if quarterRate >= fullRate {
		t.Fatalf("partial shuffle rate %.1f not below full %.1f", quarterRate, fullRate)
	}
	// And trade storage for it (slack).
	if quarter.StorageBytes <= full.StorageBytes {
		t.Fatal("partial shuffle did not allocate slack storage")
	}
	if !strings.Contains(FormatPartialShuffle(rows), "ratio") {
		t.Error("format broken")
	}
}

func TestMultiUserScales(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-user sweep is slow")
	}
	rows, err := runMultiUser(raceSized(multiUserParams(), 4), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Users != 1 || rows[1].Users != 4 {
		t.Fatal("row ordering")
	}
	// Sharing one ORAM: total requests scale with users; per-request
	// cost should not explode (same scheduler shape).
	if rows[1].PerRequest > 4*rows[0].PerRequest {
		t.Fatalf("per-request cost exploded with users: %v vs %v", rows[1].PerRequest, rows[0].PerRequest)
	}
	if !strings.Contains(FormatMultiUser(rows), "users") {
		t.Error("format broken")
	}
}

func TestStageAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("stage ablation is slow")
	}
	rows, err := runStageAblation(raceSized(stageAblationParams(), 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Higher fixed c means fewer cycles for the same request count.
	var c1, c8 StageRow
	for _, r := range rows {
		switch r.Label {
		case "fixed c=1":
			c1 = r
		case "fixed c=8":
			c8 = r
		}
	}
	if c8.Cycles >= c1.Cycles {
		t.Fatalf("c=8 used %d cycles, c=1 used %d; grouping is not reducing cycles", c8.Cycles, c1.Cycles)
	}
	if !strings.Contains(FormatStageAblation(rows), "paper") {
		t.Error("format broken")
	}
}

func TestZSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("Z sweep is slow")
	}
	rows, err := runZSweep(raceSized(zSweepParams(), 8), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TotalTime <= 0 {
			t.Fatalf("Z=%d produced zero time", r.Z)
		}
	}
	if !strings.Contains(FormatZSweep(rows), "Z") {
		t.Error("format broken")
	}
}

func TestByteSize(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		1 << 10: "1 KB",
		1 << 20: "1 MB",
		1 << 30: "1 GB",
	}
	for n, want := range cases {
		if got := byteSize(n); got != want {
			t.Errorf("byteSize(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestTable54ParamsScaling(t *testing.T) {
	full := Table54Params(1)
	if full.DataBytes != 1<<30 || full.Requests != 500000 {
		t.Fatalf("full params wrong: %+v", full)
	}
	half := Table54Params(0.5)
	if half.DataBytes != 1<<29 || half.Requests != 250000 {
		t.Fatalf("half params wrong: %+v", half)
	}
	bad := Table54Params(-2)
	if bad.DataBytes != 1<<30 {
		t.Fatal("invalid scale not clamped to 1")
	}
}

func TestTable53ParamsMatchPaper(t *testing.T) {
	p := Table53Params()
	if p.DataBytes != 64<<20 || p.MemoryBytes != 8<<20 || p.Requests != 25000 {
		t.Fatalf("Table 5-3 params drifted: %+v", p)
	}
	if p.HotFrac != 0.8 {
		t.Fatal("workload is not 80/20")
	}
}

// TestTable53Digits pins the paper's Table 5-3 run (horam-bench -exp
// table5-3) to its exact digits, so a change to the scheduler or the
// shuffle that moves the paper's metric fails here instead of drifting
// inside TestComparisonShapeMatchesPaper's [2, 6] range. The run is
// deterministic (seeded workload, simulated clock). Before a miss was
// served by its own load (d2493e4) it read 6942 H-ORAM I/Os, 13.4x and
// 3.6x; the paper reports a 3.5–3.8x I/O reduction.
func TestTable53Digits(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full Table 5-3 run (≈2.4 s, far longer under the race detector)")
	}
	c, err := RunComparison(Table53Params())
	if err != nil {
		t.Fatal(err)
	}
	if c.HORAM.IOAccesses != 6291 || c.Path.IOAccesses != 25000 {
		t.Errorf("storage I/Os: H-ORAM %d, Path ORAM %d; want 6291 and 25000", c.HORAM.IOAccesses, c.Path.IOAccesses)
	}
	if got := fmt.Sprintf("%.1fx", c.Speedup); got != "13.7x" {
		t.Errorf("speedup %s (%.4f), want 13.7x", got, c.Speedup)
	}
	if got := fmt.Sprintf("%.1fx", c.IORatio); got != "4.0x" {
		t.Errorf("I/O reduction %s (%.4f), want 4.0x", got, c.IORatio)
	}
}

func TestIOLatencyReported(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	c, err := RunComparison(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if c.HORAM.IOLatency <= 0 || c.Path.IOLatency <= 0 {
		t.Fatalf("latencies not reported: %v / %v", c.HORAM.IOLatency, c.Path.IOLatency)
	}
	// Path ORAM pays multiple random bucket reads+writes per access;
	// H-ORAM pays one block load (overlapped). Its per-access I/O
	// latency must be far lower (paper: 77µs vs 1032µs).
	if c.HORAM.IOLatency*3 > c.Path.IOLatency {
		t.Fatalf("H-ORAM I/O latency %v not well below baseline %v", c.HORAM.IOLatency, c.Path.IOLatency)
	}
	_ = time.Millisecond
}

func TestShootoutOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("shootout is slow")
	}
	rows, err := runShootout(raceSized(shootoutParams(), 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	byScheme := map[string]ShootoutRow{}
	for _, r := range rows {
		if r.TotalTime <= 0 {
			t.Fatalf("%s: zero total time", r.Scheme)
		}
		byScheme[r.Scheme] = r
	}
	h := byScheme["H-ORAM"]
	// §3's motivation, measured: H-ORAM beats the tree-path baseline
	// and the stall-heavy square-root ORAM on this cacheable workload.
	if h.TotalTime >= byScheme["Path ORAM (tree-top)"].TotalTime {
		t.Fatal("H-ORAM not faster than tree-top Path ORAM")
	}
	if h.TotalTime >= byScheme["Square-root ORAM"].TotalTime {
		t.Fatal("H-ORAM not faster than square-root ORAM")
	}
	if !strings.Contains(FormatShootout(rows), "H-ORAM") {
		t.Error("format broken")
	}
}

func TestNoShuffleCase(t *testing.T) {
	if testing.Short() {
		t.Skip("no-shuffle case is slow")
	}
	r, err := runNoShuffleCase(raceSized(noShuffleParams(), 4))
	if err != nil {
		t.Fatal(err)
	}
	// Removing the shuffle from the critical path must increase the
	// gain, and the result must respect the analytic cap.
	if r.GainBackground <= r.GainWith {
		t.Fatalf("background shuffle gain %.1f not above critical-path gain %.1f",
			r.GainBackground, r.GainWith)
	}
	// The cap counts block I/Os with reads and writes weighted
	// equally; on the HDD model writes are ~2x dearer and the baseline
	// is write-heavy, so the measured latency gain may exceed the
	// block-count cap by up to that write/read factor.
	if r.GainBackground > r.TheoreticalCap*2.5 {
		t.Fatalf("background gain %.1f implausibly exceeds the %.0fx analytic cap",
			r.GainBackground, r.TheoreticalCap)
	}
	if r.GainBackground < r.TheoreticalCap/2 {
		t.Fatalf("background gain %.1f far below the %.0fx analytic cap",
			r.GainBackground, r.TheoreticalCap)
	}
	if !strings.Contains(FormatNoShuffle(r), "background") {
		t.Error("format broken")
	}
}

func TestPrefetchDepthReducesPadding(t *testing.T) {
	if testing.Short() {
		t.Skip("prefetch sweep is slow")
	}
	rows, err := RunPrefetchDepth([]int{6, 48})
	if err != nil {
		t.Fatal(err)
	}
	shallow, deep := rows[0], rows[1]
	// A deeper scan window finds more real hits per group, so it pads
	// fewer dummy memory accesses and completes in fewer cycles.
	if deep.DummyMem >= shallow.DummyMem {
		t.Fatalf("depth 48 padded %d dummies, depth 6 padded %d; prefetching is not helping",
			deep.DummyMem, shallow.DummyMem)
	}
	if deep.TotalTime > shallow.TotalTime {
		t.Fatalf("deeper prefetch slower: %v vs %v", deep.TotalTime, shallow.TotalTime)
	}
	if !strings.Contains(FormatPrefetchDepth(rows), "d") {
		t.Error("format broken")
	}
}

func TestShuffleAlgsComparison(t *testing.T) {
	rows, err := RunShuffleAlgs()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	counts := map[string]int64{}
	for _, r := range rows {
		if r.Count <= 0 {
			t.Fatalf("%s: zero primitive count", r.Name)
		}
		counts[r.Name] = r.Count
	}
	// The oblivious algorithms must do asymptotically more work than
	// the trusted-memory Fisher-Yates on the same input.
	if counts["bitonic"] <= counts["fisher-yates"] {
		t.Fatal("bitonic not costlier than fisher-yates")
	}
	if counts["benes"] <= counts["fisher-yates"] {
		t.Fatal("benes not costlier than fisher-yates")
	}
	if !strings.Contains(FormatShuffleAlgs(rows), "fisher-yates") {
		t.Error("format broken")
	}
}
