// Command horam-bench regenerates every table and figure of the
// paper's evaluation section on the simulated machine:
//
//	horam-bench -exp all                 # every experiment marked * in -h
//	horam-bench -exp table5-4 -scale 1   # one experiment (1 GB / 500k requests, paper size)
//	horam-bench -h                       # the experiments, generated from the table below
//
// Absolute durations come from the calibrated device models (Table
// 5-2); the claims under reproduction are the ratios. The serving path
// (TCP, batching, persistence, KV, tracing) is measured by
// `go run ./benchmark`, not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/timing"
)

// options are the flag values experiment bodies read.
type options struct {
	scale  float64
	crypto bool
	reqs   int
	out    string
}

// experiment is one -exp value. The dispatcher, the -exp and -out help
// texts and the docs-drift test all read this table and nothing else.
type experiment struct {
	name  string
	about string
	inAll bool
	json  bool // run honours options.out
	run   func(w io.Writer, o options) error
}

// show adapts a run/format pair into an experiment body.
func show[T any](run func() (T, error), format func(T) string) func(io.Writer, options) error {
	return func(w io.Writer, _ options) error {
		v, err := run()
		if err != nil {
			return err
		}
		fmt.Fprint(w, format(v))
		return nil
	}
}

func comparison(w io.Writer, p bench.Params, crypto bool) error {
	p.Crypto = crypto
	c, err := bench.RunComparison(p)
	if err != nil {
		return err
	}
	fmt.Fprint(w, bench.FormatComparison(c))
	return nil
}

var experiments = []experiment{
	{name: "fig5-1", about: "analytic gain curves", inAll: true,
		run: func(w io.Writer, _ options) error {
			fmt.Fprint(w, bench.FormatFigure51(bench.RunFigure51()))
			return nil
		}},
	{name: "table5-1", about: "one-period overhead model", inAll: true,
		run: func(w io.Writer, _ options) error {
			fmt.Fprint(w, bench.FormatTable51())
			return nil
		}},
	{name: "table5-2", about: "simulated machine setup", inAll: true,
		run: show(bench.RunTable52, bench.FormatTable52)},
	{name: "table5-3", about: "64 MB / 25k requests (-crypto for real sealing)", inAll: true,
		run: func(w io.Writer, o options) error {
			return comparison(w, bench.Table53Params(), o.crypto)
		}},
	{name: "table5-4", about: "1 GB / 500k requests at -scale 1 (-crypto for real sealing)", inAll: true,
		run: func(w io.Writer, o options) error {
			if err := comparison(w, bench.Table54Params(o.scale), o.crypto); err != nil {
				return err
			}
			if o.scale != 1 {
				fmt.Fprintf(w, "(scaled by %.3g; pass -scale 1 for the paper's 1 GB / 500k requests)\n", o.scale)
			}
			return nil
		}},
	{name: "seqvsrand", about: "§5.2 sequential vs random access", inAll: true,
		run: show(bench.RunSeqVsRand, func(r bench.SeqVsRand) string {
			return fmt.Sprintf("== §5.2: sequential vs random access on the HDD model ==\n"+
				"sweep of %d x 1 KB slots: sequential %v, random %v -> random is %.1fx slower\n",
				r.Slots, r.Sequential, r.Random, r.Ratio)
		})},
	{name: "partial", about: "§5.3.1 partial shuffle", inAll: true,
		run: show(func() ([]bench.PartialShuffleRow, error) {
			return bench.RunPartialShuffle([]float64{1, 0.5, 0.25, 0.125})
		}, bench.FormatPartialShuffle)},
	{name: "multiuser", about: "§5.3.2 multi-user sharing", inAll: true,
		run: show(func() ([]bench.MultiUserRow, error) {
			return bench.RunMultiUser([]int{1, 2, 4, 8})
		}, bench.FormatMultiUser)},
	{name: "noshuffle", about: "§5.1 non-shuffle (Figure 5-2) case", inAll: true,
		run: show(bench.RunNoShuffleCase, bench.FormatNoShuffle)},
	{name: "shootout", about: "all four schemes, one trace", inAll: true,
		run: show(bench.RunShootout, bench.FormatShootout)},
	{name: "ablations", about: "Z sweep, scheduler schedule, prefetch depth, shuffle algorithms", inAll: true,
		run: func(w io.Writer, o options) error {
			for i, part := range []func(io.Writer, options) error{
				show(func() ([]bench.ZSweepRow, error) { return bench.RunZSweep([]int{2, 4, 6}) }, bench.FormatZSweep),
				show(bench.RunStageAblation, bench.FormatStageAblation),
				show(func() ([]bench.PrefetchRow, error) { return bench.RunPrefetchDepth([]int{6, 12, 24, 48}) }, bench.FormatPrefetchDepth),
				show(bench.RunShuffleAlgs, bench.FormatShuffleAlgs),
			} {
				if i > 0 {
					fmt.Fprintln(w)
				}
				if err := part(w, o); err != nil {
					return err
				}
			}
			return nil
		}},
	{name: "concurrency", about: "serving throughput vs TCP clients (-reqs per client)", inAll: true,
		run: func(w io.Writer, o options) error {
			rows, err := bench.RunConcurrency([]int{1, 2, 4, 8, 16}, o.reqs)
			if err != nil {
				return err
			}
			fmt.Fprint(w, bench.FormatConcurrency(rows))
			return nil
		}},
	// Not in all: timing measures the HOST machine's timing noise, not
	// the simulated device models the paper figures come from.
	{name: "timing", about: "constant-time mode: timing-variance distinguishability", json: true,
		run: func(w io.Writer, o options) error {
			rep, err := bench.RunTiming(timing.Options{}, bench.DefaultTimingThreshold)
			if err != nil {
				return err
			}
			fmt.Fprint(w, bench.FormatTiming(rep))
			if o.out == "" {
				return nil
			}
			if err := bench.WriteTimingJSON(o.out, rep); err != nil {
				return err
			}
			fmt.Fprintf(w, "\nwrote %s\n", o.out)
			return nil
		}},
}

// expUsage is the -exp help text: "all" and one line per table entry.
func expUsage() string {
	var b strings.Builder
	b.WriteString("experiment to run:")
	line := func(name, mark, about string) { fmt.Fprintf(&b, "\n  %-12s %s %s", name, mark, about) }
	line("all", " ", "every experiment marked *")
	for _, e := range experiments {
		mark := " "
		if e.inAll {
			mark = "*"
		}
		line(e.name, mark, e.about)
	}
	return b.String()
}

// outUsage is the -out help text, naming the experiments with a JSON form.
func outUsage() string {
	var names []string
	for _, e := range experiments {
		if e.json {
			names = append(names, "-exp "+e.name)
		}
	}
	return "also write the report as JSON to this path (" + strings.Join(names, ", ") + " only)"
}

func main() {
	var o options
	exp := flag.String("exp", "all", expUsage())
	flag.Float64Var(&o.scale, "scale", 0.125, "scale factor for table5-4 (1 = paper size: 1 GB, 500k requests)")
	flag.BoolVar(&o.crypto, "crypto", false, "run with real AES-GCM sealing instead of the null sealer")
	flag.IntVar(&o.reqs, "reqs", 200, "requests per client for -exp concurrency")
	flag.StringVar(&o.out, "out", "", outUsage())
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this path (go tool pprof)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "horam-bench:", err)
			os.Exit(1)
		}
		defer f.Close() //horam:errok the profile is flushed by StopCPUProfile; the process is exiting
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "horam-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	err := run(os.Stdout, *exp, o)

	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr == nil {
			runtime.GC() // settle live-heap numbers before the snapshot
			merr = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); merr == nil {
				merr = cerr
			}
		}
		if merr != nil && err == nil {
			err = merr
		}
	}

	if err != nil {
		pprof.StopCPUProfile() // flush before the hard exit skips defers
		fmt.Fprintln(os.Stderr, "horam-bench:", err)
		os.Exit(1)
	}
}

// run prints the experiment named exp — or, for "all", every table
// entry with inAll — each followed by a blank line.
func run(w io.Writer, exp string, o options) error {
	ran := false
	for _, e := range experiments {
		if exp != e.name && !(exp == "all" && e.inAll) {
			continue
		}
		if o.out != "" && (exp == "all" || !e.json) {
			return fmt.Errorf("-out: -exp %s has no JSON form", exp)
		}
		ran = true
		if err := e.run(w, o); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
