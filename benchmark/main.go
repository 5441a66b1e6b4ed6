// Command benchmark is the repository's one end-to-end, layer-by-layer
// benchmark. It assembles the serving stack as cmd/horamd does, serves
// it on a loopback listener, drives it through internal/client over
// real TCP, checks every reply against an in-memory model and prints
// every metric BENCHMARK.json names. See README.md.
//
//	go run ./benchmark -workload block_rtt -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Seeds. defaultSeed is the one to develop against; heldOutSeed is for
// checking that a claim made on the default also holds on inputs nobody
// tuned for.
const (
	defaultSeed = 1
	heldOutSeed = 20190602
)

// gomaxprocs pins the scheduler to the reference host's two cores, so a
// run on a larger machine measures the same configuration.
const gomaxprocs = 2

// deadline makes a wedged stack fail the run instead of hanging it.
const deadline = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them, one after another)")
		seed    = flag.Int64("seed", defaultSeed, fmt.Sprintf("op-stream seed; %d is the held-out seed", heldOutSeed))
		seconds = flag.Float64("seconds", 20, "measured window in seconds (preceded by seconds/8 of untimed warm-up)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from the stack as horamd builds it; 1: per-layer metrics, half the window on an instrumented stack")
		ops     = flag.Int("ops", 0, "measure a fixed number of logical ops per connection instead of -seconds (makes counters exactly repeatable)")
		out     = flag.String("out", "benchmark/out", "directory for scratch data and <workload>.trace.json")
		repeat  = flag.Int("repeat", 1, "run each workload this many times on consecutive seeds and check each end-to-end metric's spread against its bound in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *ops < 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)

	specs := workloads
	if *name != "" {
		sp, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		specs = []spec{sp}
	}
	w := window{seconds: *seconds, ops: *ops, sweep: sweepBudget, probe: probeTime, setup: setupBudget}
	printHost()
	ok := true
	for _, sp := range specs {
		var runs []*result
		for i := 0; i < *repeat; i++ {
			res, err := runOne(sp, *seed+int64(i), w, *trace == 1, *out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				os.Exit(1)
			}
			res.print()
			ok = ok && res.correct()
			runs = append(runs, res)
		}
		if *repeat > 1 && *trace == 0 {
			steady, err := printSpread(runs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(1)
			}
			ok = ok && steady
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload once, under the watchdog.
func runOne(sp spec, seed int64, w window, traced bool, out string) (*result, error) {
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s: no result after %v; giving up\n", sp.name, deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if traced {
		return runTraced(sp, seed, w, out)
	}
	return runUntraced(sp, seed, w, out)
}

// printHost records where the numbers were taken.
func printHost() {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux; the line then just lacks it
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s\n",
		runtime.NumCPU(), gomaxprocs, runtime.Version(), runtime.GOOS, runtime.GOARCH, strings.TrimSpace(string(kernel)))
}

// print writes the human-readable report and then the result line.
func (r *result) print() {
	fmt.Printf("# %s seed=%d: %d client calls in %.3f s measured; %d ops attempted in all, %d failed\n",
		r.workload, r.seed, r.calls, r.wall.Seconds(), r.tally.attempted, r.tally.failed)
	for _, m := range r.metrics {
		fmt.Printf("%-36s %16.6g %s\n", m.name, m.value, m.unit)
	}
	if r.note != "" {
		fmt.Println("# " + r.note)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.tally.attempted, r.tally.failed, make(map[string]value)}
	for _, m := range r.metrics {
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	raw, err := json.Marshal(line) // fails on a NaN or infinite value, which bench_test.go rules out
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}

// contract is the part of BENCHMARK.json -repeat checks against.
type contract struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// printSpread prints, for every end-to-end metric, the median over the
// runs and the interquartile distance as a share of the median — the
// contract's steadiness measure — against the metric's bound. It
// reports whether every spread except setup_s's stayed within bounds.
func printSpread(runs []*result) (bool, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("-repeat needs BENCHMARK.json in the working directory: %w", err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	steady := true
	fmt.Printf("# %s: spread over %d runs (interquartile distance / median)\n", runs[0].workload, len(runs))
	for _, e := range c.EndToEnd {
		var vals []float64
		for _, r := range runs {
			for _, m := range r.metrics {
				if m.name == e.Name {
					vals = append(vals, m.value)
				}
			}
		}
		if len(vals) != len(runs) {
			return false, fmt.Errorf("metric %q of BENCHMARK.json is not reported by every run", e.Name)
		}
		q1, q2, q3 := quartiles(vals)
		spread := ratio(q3-q1, q2)
		verdict := "ok"
		if spread > e.Bound && e.Name != "setup_s" {
			verdict = "EXCEEDS BOUND"
			steady = false
		}
		fmt.Printf("# %-16s median %14.6g  spread %6.2f%%  bound %5.1f%%  %s\n", e.Name, q2, 100*spread, 100*e.Bound, verdict)
	}
	return steady, nil
}
