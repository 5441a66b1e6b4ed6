// Package timing is a statistical timing-variance harness: it decides
// whether two operations — same public shape, different secret state —
// are distinguishable by a co-located adversary with a wall clock.
//
// # Method
//
// The harness interleaves the two operations A/B/A/B within one run,
// so slow drift (frequency scaling, thermal state, scheduler phase)
// lands on both sides equally instead of biasing whichever ran
// second. Each sample times a small fixed-count inner loop rather
// than a single call: the loop amplifies a per-call difference of a
// few nanoseconds well above the timer's own resolution, which is
// exactly the amplification a real attacker would use. The per-side
// sample sets are then trimmed (both tails) to shed scheduler
// preemptions and other heavy outliers, and compared with Welch's
// unequal-variance t statistic:
//
//	t = (mean(A) − mean(B)) / sqrt(var(A)/nA + var(B)/nB)
//
// |t| below a calibrated threshold means the pair is statistically
// indistinguishable at the harness's power; far above it means the
// secret leaks. The threshold is deliberately generous (see the gate
// in internal/bench): shared CI runners are noisy, and the gate's job
// is to catch regressions that reopen a channel by tens of
// nanoseconds per op, not to certify cycle-exactness.
package timing

import (
	"math"
	"sort"
	"time"
)

// Stats summarises one side's trimmed sample set, in nanoseconds per
// sample (one sample = one inner loop, not one call).
type Stats struct {
	N        int     `json:"n"`
	Mean     float64 `json:"mean_ns"`
	Variance float64 `json:"variance_ns2"`
}

// PairResult is the outcome of one A-vs-B measurement.
type PairResult struct {
	A Stats   `json:"a"`
	B Stats   `json:"b"`
	T float64 `json:"t"` // Welch's t; positive means A slower
}

// Options tunes a measurement run. The zero value selects defaults.
type Options struct {
	// Samples per side; 0 selects 2000.
	Samples int
	// Warmup iterations per side before sampling begins; 0 selects
	// Samples/10.
	Warmup int
	// TrimFraction is the fraction trimmed from EACH tail of each
	// side's sorted samples; 0 selects 0.1. Values ≥ 0.5 are clamped
	// to leave at least one sample.
	TrimFraction float64
}

func (o Options) withDefaults() Options {
	if o.Samples <= 0 {
		o.Samples = 2000
	}
	if o.Warmup <= 0 {
		o.Warmup = o.Samples / 10
	}
	if o.TrimFraction <= 0 {
		o.TrimFraction = 0.1
	}
	return o
}

// MeasurePair times a and b interleaved and returns the trimmed
// Welch comparison. Each call of a or b should already contain its
// own fixed inner loop; MeasurePair times exactly one call per
// sample.
func MeasurePair(opts Options, a, b func()) PairResult {
	return MeasurePairReset(opts, a, b, nil, nil)
}

// MeasurePairReset is MeasurePair for operations that consume the
// state they run on: resetA, when not nil, runs untimed before every
// call of a, and resetB before every call of b, warm-up included.
func MeasurePairReset(opts Options, a, b, resetA, resetB func()) PairResult {
	opts = opts.withDefaults()
	reset := func(f func()) {
		if f != nil {
			f()
		}
	}
	for i := 0; i < opts.Warmup; i++ {
		reset(resetA)
		a()
		reset(resetB)
		b()
	}
	sa := make([]float64, opts.Samples)
	sb := make([]float64, opts.Samples)
	for i := 0; i < opts.Samples; i++ {
		reset(resetA)
		t0 := time.Now()
		a()
		t1 := time.Now()
		reset(resetB)
		t2 := time.Now()
		b()
		t3 := time.Now()
		sa[i] = float64(t1.Sub(t0).Nanoseconds())
		sb[i] = float64(t3.Sub(t2).Nanoseconds())
	}
	ta := Trim(sa, opts.TrimFraction)
	tb := Trim(sb, opts.TrimFraction)
	ra := Summarize(ta)
	rb := Summarize(tb)
	return PairResult{A: ra, B: rb, T: Welch(ra, rb)}
}

// Trim sorts samples and drops frac of each tail, returning the
// retained middle (at least one sample).
func Trim(samples []float64, frac float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(float64(len(s)) * frac)
	if 2*k >= len(s) {
		k = (len(s) - 1) / 2
	}
	return s[k : len(s)-k]
}

// Summarize computes sample mean and (unbiased) variance.
func Summarize(samples []float64) Stats {
	n := len(samples)
	if n == 0 {
		return Stats{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	variance := 0.0
	if n > 1 {
		variance = ss / float64(n-1)
	}
	return Stats{N: n, Mean: mean, Variance: variance}
}

// Welch returns the unequal-variance t statistic between two
// summarised sides. Degenerate inputs (no spread, tiny n) yield 0
// when the means agree and ±Inf-clamped-to-large when they do not,
// so callers can threshold |t| uniformly.
func Welch(a, b Stats) float64 {
	if a.N == 0 || b.N == 0 {
		return 0
	}
	se := math.Sqrt(a.Variance/float64(a.N) + b.Variance/float64(b.N))
	diff := a.Mean - b.Mean
	if se == 0 {
		if diff == 0 {
			return 0
		}
		return math.Copysign(1e9, diff)
	}
	return diff / se
}
