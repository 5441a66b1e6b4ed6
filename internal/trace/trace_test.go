package trace

import (
	"math"
	"testing"

	"repro/internal/blockcipher"
	"repro/internal/device"
	"repro/internal/simclock"
)

func TestRecorderCapturesEvents(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.DRAM(), 8, 16, clk)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	dev.SetHook(rec.Hook())
	buf := make([]byte, 8)
	dev.Write(3, buf)
	dev.Read(3, buf)
	dev.Read(5, buf)
	if rec.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", rec.Len())
	}
	reads := rec.Reads()
	if len(reads) != 2 || reads[0] != 3 || reads[1] != 5 {
		t.Fatalf("Reads() = %v", reads)
	}
	ev := rec.Events()[0]
	if ev.Op != device.OpWrite || ev.Slot != 3 || ev.Dev != "dram" {
		t.Fatalf("Events()[0] = %+v", ev)
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestChiSquareUniformAcceptsUniform(t *testing.T) {
	rng := blockcipher.NewRNGFromString("uniform")
	obs := make([]int64, 10000)
	for i := range obs {
		obs[i] = rng.Int63n(1000)
	}
	check, err := CheckUniform(obs, 1000, 20, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !check.Pass {
		t.Fatalf("uniform data rejected: chi2=%.1f crit=%.1f", check.Chi2, check.Critical)
	}
}

func TestChiSquareUniformRejectsSkew(t *testing.T) {
	rng := blockcipher.NewRNGFromString("skew")
	obs := make([]int64, 10000)
	for i := range obs {
		if i%2 == 0 {
			obs[i] = rng.Int63n(100) // heavy head
		} else {
			obs[i] = rng.Int63n(1000)
		}
	}
	check, err := CheckUniform(obs, 1000, 20, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if check.Pass {
		t.Fatalf("skewed data accepted: chi2=%.1f crit=%.1f", check.Chi2, check.Critical)
	}
}

func TestChiSquareUniformValidation(t *testing.T) {
	if _, _, err := ChiSquareUniform(make([]int64, 100), 10, 1); err == nil {
		t.Error("accepted 1 bin")
	}
	if _, _, err := ChiSquareUniform(make([]int64, 3), 10, 2); err == nil {
		t.Error("accepted too few observations")
	}
	if _, _, err := ChiSquareUniform([]int64{999}, 10, 2); err == nil {
		t.Error("accepted out-of-range slot")
	}
	if _, _, err := ChiSquareUniform(make([]int64, 100), 0, 2); err == nil {
		t.Error("accepted zero slots")
	}
}

func TestChiSquareCriticalKnownValues(t *testing.T) {
	// Reference values: chi2(k=9, 0.001) = 27.88; chi2(k=19, 0.001) = 43.82;
	// chi2(k=9, 0.05) = 16.92. Wilson-Hilferty is good to a few percent.
	cases := []struct {
		k     int
		alpha float64
		want  float64
	}{
		{9, 0.001, 27.88},
		{19, 0.001, 43.82},
		{9, 0.05, 16.92},
		{99, 0.01, 134.64},
	}
	for _, tc := range cases {
		got := ChiSquareCritical(tc.k, tc.alpha)
		if math.Abs(got-tc.want)/tc.want > 0.03 {
			t.Errorf("ChiSquareCritical(%d, %v) = %.2f, want ≈%.2f", tc.k, tc.alpha, got, tc.want)
		}
	}
}

func TestFirstRepeat(t *testing.T) {
	r := func(slot int64) Event { return Event{Op: device.OpRead, Slot: slot} }
	w := func(slot int64) Event { return Event{Op: device.OpWrite, Slot: slot} }
	cases := []struct {
		name   string
		events []Event
		want   int
	}{
		{"distinct reads", []Event{r(1), r(2), r(3)}, -1},
		{"read, read", []Event{r(1), r(1)}, 1},
		{"read, write, read", []Event{r(1), w(1), r(1)}, -1},
		{"write to another slot does not re-arm", []Event{r(1), w(2), r(1)}, 2},
		{"re-armed slot repeats again", []Event{r(1), w(1), r(1), r(2), r(1)}, 4},
		{"writes only", []Event{w(1), w(1), w(2)}, -1},
		{"nil", nil, -1},
	}
	for _, tc := range cases {
		if got := FirstRepeat(tc.events); got != tc.want {
			t.Errorf("%s: FirstRepeat = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTwoSampleChiSquareSameDistribution(t *testing.T) {
	rng := blockcipher.NewRNGFromString("two-same")
	a := make([]int64, 5000)
	b := make([]int64, 5000)
	for i := range a {
		a[i] = rng.Int63n(500)
		b[i] = rng.Int63n(500)
	}
	chi2, dof, err := TwoSampleChiSquare(a, b, 500, 10)
	if err != nil {
		t.Fatal(err)
	}
	if crit := ChiSquareCritical(dof, 0.001); chi2 > crit {
		t.Fatalf("identical distributions distinguished: chi2=%.1f crit=%.1f", chi2, crit)
	}
}

func TestTwoSampleChiSquareDifferentDistributions(t *testing.T) {
	rng := blockcipher.NewRNGFromString("two-diff")
	a := make([]int64, 5000)
	b := make([]int64, 5000)
	for i := range a {
		a[i] = rng.Int63n(500)
		b[i] = rng.Int63n(250) // half the range
	}
	chi2, dof, err := TwoSampleChiSquare(a, b, 500, 10)
	if err != nil {
		t.Fatal(err)
	}
	if crit := ChiSquareCritical(dof, 0.001); chi2 <= crit {
		t.Fatalf("different distributions not distinguished: chi2=%.1f crit=%.1f", chi2, crit)
	}
}

func TestTwoSampleValidation(t *testing.T) {
	if _, _, err := TwoSampleChiSquare(nil, []int64{1}, 10, 2); err == nil {
		t.Error("accepted empty sample")
	}
	if _, _, err := TwoSampleChiSquare([]int64{1}, []int64{1}, 10, 1); err == nil {
		t.Error("accepted 1 bin")
	}
	if _, _, err := TwoSampleChiSquare([]int64{99}, []int64{1}, 10, 2); err == nil {
		t.Error("accepted out-of-range slot")
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	for _, p := range []float64{0.6, 0.9, 0.99, 0.999} {
		up := normalQuantile(p)
		down := normalQuantile(1 - p)
		if math.Abs(up+down) > 1e-6 {
			t.Errorf("quantile not symmetric at %v: %v vs %v", p, up, down)
		}
	}
	// z(0.999) ≈ 3.090.
	if z := normalQuantile(0.999); math.Abs(z-3.090) > 0.01 {
		t.Errorf("z(0.999) = %v, want ≈3.090", z)
	}
}
