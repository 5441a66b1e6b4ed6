package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// The tests run every workload on a shrunken geometry for a fixed,
// small number of ops and assert only facts that do not depend on
// goroutine scheduling or on the host's speed: which metrics are
// printed, that they are finite, that no op failed, and that the
// counters of a single-connection run repeat exactly.

// small shrinks a workload's geometry, MULTI size and key count so that
// set-up and a few calls take milliseconds, also under the race
// detector.
func small(sp spec) spec {
	if !sp.constantTime { // block_ct is already tiny
		sp.blocks /= 16
		sp.memoryBytes /= 16
	}
	sp.multi = min(sp.multi, 8)
	if sp.kv {
		sp.kvKeys = 4
	}
	return sp
}

// testWindow measures a few client calls per connection and keeps the
// untimed parts short.
func testWindow(sp spec) window {
	w := window{ops: 6 * sp.multi, sweep: 50 * time.Millisecond, probe: 5 * time.Millisecond}
	if sp.constantTime || sp.kv { // one to two orders of magnitude slower per op
		w.ops = 3
	}
	return w
}

type contractFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contractFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkResult holds a run's metrics to one list of BENCHMARK.json:
// same names in the same order, same units, finite values, no failed
// op.
func checkResult(t *testing.T, res *result, want [][2]string) {
	t.Helper()
	if !res.correct() {
		t.Errorf("%s: %d of %d ops failed", res.workload, res.tally.failed, res.tally.attempted)
	}
	if len(res.metrics) != len(want) {
		t.Fatalf("%s: %d metrics printed, BENCHMARK.json lists %d", res.workload, len(res.metrics), len(want))
	}
	for i, m := range res.metrics {
		if m.name != want[i][0] || m.unit != want[i][1] {
			t.Errorf("%s: metric %d is %s [%s], BENCHMARK.json lists %s [%s]", res.workload, i, m.name, m.unit, want[i][0], want[i][1])
		}
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("%s: %s [%s] is outside the contract's name or unit alphabet", res.workload, m.name, m.unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s: %s = %v", res.workload, m.name, m.value)
		}
	}
}

func TestWorkloadsMatchContract(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, c.Workloads[i].Name, w.name)
		}
	}
}

func TestEveryWorkloadReportsTheContractsMetrics(t *testing.T) {
	c := readContract(t)
	var endToEnd, perLayer [][2]string
	for _, e := range c.EndToEnd {
		endToEnd = append(endToEnd, [2]string{e.Name, e.Unit})
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, p := range c.PerLayer {
		perLayer = append(perLayer, [2]string{p.Name, p.Unit})
	}
	for _, sp := range workloads {
		sp := small(sp)
		t.Run(sp.name, func(t *testing.T) {
			out := t.TempDir()
			res, err := runUntraced(sp, defaultSeed, testWindow(sp), out)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			res, err = runTraced(sp, defaultSeed, testWindow(sp), out)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			if _, err := os.Stat(out + "/" + sp.name + ".trace.json"); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

// TestSingleConnectionCountsRepeat pins the counts the README calls
// exact: with one connection every window holds one request, so the
// scheduler's work is a function of the op stream alone.
func TestSingleConnectionCountsRepeat(t *testing.T) {
	sp, _ := findWorkload("block_rtt")
	sp = small(sp)
	w := testWindow(sp)
	w.ops = 48
	run := func(seed int64) map[string]float64 {
		res, err := runTraced(sp, seed, w, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Fatalf("seed %d: %d ops failed", seed, res.tally.failed)
		}
		got := make(map[string]float64)
		for _, m := range res.metrics {
			got[m.name] = m.value
		}
		return got
	}
	a, b, other := run(defaultSeed), run(defaultSeed), run(heldOutSeed)
	for _, name := range []string{"client.calls", "server.windows", "engine.batches", "engine.cycles", "device.reads", "device.writes", "blockcipher.bytes_sealed_per_op"} {
		if a[name] != b[name] {
			t.Errorf("%s: %v then %v on one seed", name, a[name], b[name])
		}
		if a[name] == 0 && name != "device.writes" { // no shuffle falls inside so short a window
			t.Errorf("%s is 0: the counter is not being read", name)
		}
	}
	// Another seed sends other addresses, not another amount of traffic.
	for _, name := range []string{"client.calls", "server.windows", "engine.batches"} {
		if a[name] != other[name] {
			t.Errorf("%s: %v on seed %d, %v on seed %d", name, a[name], defaultSeed, other[name], heldOutSeed)
		}
	}
	s1, err := newStream(sp, defaultSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := newStream(sp, heldOutSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 16; i++ {
		same = same && s1.next().addr == s2.next().addr
	}
	if same {
		t.Error("two seeds generated the same address stream")
	}
}

func TestStreamsAreAPureFunctionOfTheSeed(t *testing.T) {
	for _, sp := range workloads {
		for conn := 0; conn < sp.conns; conn++ {
			a, err := newStream(sp, 7, conn)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := newStream(sp, 7, conn)
			for i := 0; i < 200; i++ {
				x, y := a.next(), b.next()
				if x.kind != y.kind || x.addr != y.addr || string(x.key) != string(y.key) || string(x.data) != string(y.data) {
					t.Fatalf("%s conn %d op %d: %+v then %+v", sp.name, conn, i, x, y)
				}
				if !sp.kv && x.addr%int64(sp.conns) != int64(conn) {
					t.Fatalf("%s conn %d op %d: address %d belongs to another connection", sp.name, conn, i, x.addr)
				}
			}
		}
	}
}

// TestQuartiles holds the spread arithmetic to the values Python's
// statistics.quantiles(v, n=4) returns, since that is what the
// benchmark's contract measures steadiness with.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, [3]float64{2, 4, 5}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestIntervalArithmetic(t *testing.T) {
	a := ivals{{5, 9}, {0, 3}, {2, 4}, {9, 10}}.merged()
	if want := (ivals{{0, 4}, {5, 10}}); len(a) != 2 || a[0] != want[0] || a[1] != want[1] {
		t.Fatalf("merged = %v, want %v", a, want)
	}
	if a.length() != 9 {
		t.Errorf("length = %v, want 9", a.length())
	}
	b := ivals{{1, 2}, {3, 6}, {20, 30}}.merged()
	if got := overlap(a, b); got != 3 { // [1,2) + [3,4) + [5,6)
		t.Errorf("overlap = %v, want 3", got)
	}
}
