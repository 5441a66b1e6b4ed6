// Package trace records the adversary's view of a simulated device —
// the sequence of (operation, slot) pairs on the bus — and provides
// the statistical tests the security arguments rest on: uniformity of
// accessed locations, absence of a second read of a slot before it is
// rewritten (the square-root invariant), and indistinguishability of
// two traces produced by different plaintext workloads.
package trace

import (
	"fmt"
	"math"

	"repro/internal/device"
)

// Event is one observed device access.
type Event struct {
	Dev  string
	Op   device.Op
	Slot int64
}

// Recorder captures events from one or more devices via their hooks.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Hook returns a device.Hook that appends to the recorder. Attach it
// with dev.SetHook(rec.Hook()).
func (r *Recorder) Hook() device.Hook {
	return func(dev string, op device.Op, slot int64) {
		r.events = append(r.events, Event{Dev: dev, Op: op, Slot: slot})
	}
}

// Events returns the recorded sequence.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Reset clears the recording.
func (r *Recorder) Reset() { r.events = r.events[:0] }

// Reads returns only the read events' slots, in order.
func (r *Recorder) Reads() []int64 {
	var out []int64
	for _, e := range r.events {
		if e.Op == device.OpRead {
			out = append(out, e.Slot)
		}
	}
	return out
}

// ChiSquareUniform computes the chi-square statistic of the observed
// slot counts against the uniform distribution over `bins` equal-width
// bins spanning [0, slots). It returns the statistic and the degrees
// of freedom.
func ChiSquareUniform(observed []int64, slots int64, bins int) (float64, int, error) {
	if bins < 2 {
		return 0, 0, fmt.Errorf("trace: need ≥ 2 bins, got %d", bins)
	}
	if slots <= 0 {
		return 0, 0, fmt.Errorf("trace: slots must be positive")
	}
	if len(observed) < 5*bins {
		return 0, 0, fmt.Errorf("trace: %d observations too few for %d bins (need ≥ %d)", len(observed), bins, 5*bins)
	}
	counts := make([]int64, bins)
	for _, s := range observed {
		if s < 0 || s >= slots {
			return 0, 0, fmt.Errorf("trace: slot %d out of range [0,%d)", s, slots)
		}
		b := int(s * int64(bins) / slots)
		if b == bins {
			b--
		}
		counts[b]++
	}
	// Bin widths may differ by one slot; use exact expected counts.
	var chi2 float64
	for b := 0; b < bins; b++ {
		lo := int64(b) * slots / int64(bins)
		hi := int64(b+1) * slots / int64(bins)
		expected := float64(len(observed)) * float64(hi-lo) / float64(slots)
		d := float64(counts[b]) - expected
		chi2 += d * d / expected
	}
	return chi2, bins - 1, nil
}

// ChiSquareCritical returns the approximate critical value of the
// chi-square distribution with k degrees of freedom at the given upper
// tail probability (e.g. 0.001), using the Wilson–Hilferty cube
// approximation — accurate to a few percent for k ≥ 3, ample for a
// pass/fail security smoke test.
func ChiSquareCritical(k int, alpha float64) float64 {
	z := normalQuantile(1 - alpha)
	kf := float64(k)
	t := 1 - 2/(9*kf) + z*math.Sqrt(2/(9*kf))
	return kf * t * t * t
}

// normalQuantile is the Acklam/Moro-style rational approximation of
// the standard normal inverse CDF.
func normalQuantile(p float64) float64 {
	// Beasley-Springer-Moro.
	a := []float64{2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637}
	b := []float64{-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833}
	c := []float64{0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
		0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
		0.0000321767881768, 0.0000002888167364, 0.0000003960315187}
	y := p - 0.5
	if math.Abs(y) < 0.42 {
		r := y * y
		num := y * (((a[3]*r+a[2])*r+a[1])*r + a[0])
		den := (((b[3]*r+b[2])*r+b[1])*r+b[0])*r + 1
		return num / den
	}
	r := p
	if y > 0 {
		r = 1 - p
	}
	r = math.Log(-math.Log(r))
	x := c[0]
	pow := 1.0
	for i := 1; i < len(c); i++ {
		pow *= r
		x += c[i] * pow
	}
	if y < 0 {
		x = -x
	}
	return x
}

// UniformityCheck runs ChiSquareUniform and compares against the
// critical value at significance alpha, returning a human-readable
// verdict.
type UniformityCheck struct {
	Chi2     float64
	Dof      int
	Critical float64
	Pass     bool
}

// CheckUniform tests whether observed slots are consistent with a
// uniform access distribution at significance alpha.
func CheckUniform(observed []int64, slots int64, bins int, alpha float64) (UniformityCheck, error) {
	chi2, dof, err := ChiSquareUniform(observed, slots, bins)
	if err != nil {
		return UniformityCheck{}, err
	}
	crit := ChiSquareCritical(dof, alpha)
	return UniformityCheck{Chi2: chi2, Dof: dof, Critical: crit, Pass: chi2 <= crit}, nil
}

// FirstRepeat returns the index of the first OpRead of a slot that was
// already read since that slot's last OpWrite, or -1 if there is none.
// It checks the square-root invariant (§4.3): access traffic reads a
// storage slot at most once between two shuffle rewrites of it. Callers
// record one device's access reads and shuffle writes and drop its
// shuffle reads; the check has no notion of a period, so it is exact
// whether the shuffle runs as one pass, in quanta, or over a subset of
// partitions.
func FirstRepeat(events []Event) int {
	read := make(map[int64]bool)
	for i, e := range events {
		switch e.Op {
		case device.OpWrite:
			delete(read, e.Slot)
		case device.OpRead:
			if read[e.Slot] {
				return i
			}
			read[e.Slot] = true
		}
	}
	return -1
}

// TwoSampleChiSquare compares two traces' slot histograms over shared
// equal-width bins; a small statistic means an adversary cannot
// distinguish the workloads that produced them from where they
// touched storage. Returns the statistic and degrees of freedom.
func TwoSampleChiSquare(a, b []int64, slots int64, bins int) (float64, int, error) {
	if bins < 2 {
		return 0, 0, fmt.Errorf("trace: need ≥ 2 bins")
	}
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, fmt.Errorf("trace: empty sample")
	}
	ca := make([]float64, bins)
	cb := make([]float64, bins)
	binOf := func(s int64) (int, error) {
		if s < 0 || s >= slots {
			return 0, fmt.Errorf("trace: slot %d out of range", s)
		}
		bi := int(s * int64(bins) / slots)
		if bi == bins {
			bi--
		}
		return bi, nil
	}
	for _, s := range a {
		bi, err := binOf(s)
		if err != nil {
			return 0, 0, err
		}
		ca[bi]++
	}
	for _, s := range b {
		bi, err := binOf(s)
		if err != nil {
			return 0, 0, err
		}
		cb[bi]++
	}
	na, nb := float64(len(a)), float64(len(b))
	var chi2 float64
	dof := 0
	for i := 0; i < bins; i++ {
		tot := ca[i] + cb[i]
		if tot == 0 {
			continue
		}
		dof++
		ea := tot * na / (na + nb)
		eb := tot * nb / (na + nb)
		da := ca[i] - ea
		db := cb[i] - eb
		chi2 += da*da/ea + db*db/eb
	}
	if dof < 2 {
		return 0, 0, fmt.Errorf("trace: fewer than 2 populated bins")
	}
	return chi2, dof - 1, nil
}
