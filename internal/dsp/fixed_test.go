package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestToQ15Rounding(t *testing.T) {
	cases := []struct {
		in   float64
		want int32
	}{
		{0, 0},
		{1, Q15One},
		{-1, -Q15One},
		{0.5, Q15One / 2},
		{1.0 / Q15One, 1},
		{0.4999 / Q15One, 0},    // below half a step rounds to zero
		{0.5 / Q15One, 1},       // half a step rounds away from zero
		{-0.5 / Q15One, -1},     // ... in both directions
		{65535.99999, Q15Max},   // at the positive rail
		{-65536.00001, Q15Min},  // past the negative rail
		{math.Inf(1), Q15Max},   // infinities saturate
		{math.Inf(-1), Q15Min},  // ...
		{math.NaN(), 0},         // NaN quantizes to zero
		{1e300, Q15Max},         // huge values saturate, no overflow
		{-1e300, Q15Min},        // ...
		{20.25, 20.25 * Q15One}, // engineering units are exact on the grid
		{-9.81, -321454},        // round(-9.81 * 32768)
	}
	for _, c := range cases {
		if got := ToQ15(c.in); got != c.want {
			t.Errorf("ToQ15(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFromQ15Inverse(t *testing.T) {
	// Every representable Q15 value round-trips exactly.
	for _, q := range []int32{0, 1, -1, Q15One, -Q15One, Q15Max, Q15Min, 12345, -54321} {
		if got := ToQ15(FromQ15(q)); got != q {
			t.Errorf("ToQ15(FromQ15(%d)) = %d", q, got)
		}
	}
}

func TestQuantizeQ15(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64() * 10
		q := QuantizeQ15(x)
		if math.Abs(q-x) > 0.5/Q15One+1e-12 {
			t.Fatalf("QuantizeQ15(%g) = %g: error exceeds half a step", x, q)
		}
		if QuantizeQ15(q) != q {
			t.Fatalf("QuantizeQ15 not idempotent at %g", x)
		}
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if got := SatAdd32(Q15Max, 1); got != Q15Max {
		t.Errorf("SatAdd32 overflow = %d", got)
	}
	if got := SatAdd32(Q15Min, -1); got != Q15Min {
		t.Errorf("SatAdd32 underflow = %d", got)
	}
	if got := SatSub32(Q15Min, 1); got != Q15Min {
		t.Errorf("SatSub32 underflow = %d", got)
	}
	if got := SatSub32(Q15Max, -1); got != Q15Max {
		t.Errorf("SatSub32 overflow = %d", got)
	}
	if got := SatAdd32(3, 4); got != 7 {
		t.Errorf("SatAdd32(3,4) = %d", got)
	}
	// MulQ15: 0.5 * 0.5 = 0.25, exact on the grid.
	half := int32(Q15One / 2)
	if got := MulQ15(half, half); got != Q15One/4 {
		t.Errorf("MulQ15(0.5, 0.5) = %d, want %d", got, Q15One/4)
	}
	// Saturation: (2^16)^2 in real terms is far beyond the rails.
	big := int32(Q15Max)
	if got := MulQ15(big, big); got != Q15Max {
		t.Errorf("MulQ15(max, max) = %d", got)
	}
	if got := MulQ15(big, -big); got != Q15Min {
		t.Errorf("MulQ15(max, -max) = %d", got)
	}
}

func TestQ15StatsMatchFloatStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 128)
	q := make([]int32, 128)
	for i := range x {
		x[i] = rng.NormFloat64() * 5
		q[i] = ToQ15(x[i])
	}
	// One Q15 step of the input plus accumulated rounding; stddev/rms
	// involve a square root so allow a slightly wider margin.
	const tol = 2e-3
	checks := []struct {
		name  string
		fixed int32
		want  float64
	}{
		{"mean", MeanQ15(q), Mean(x)},
		{"variance", VarianceQ15(q), Variance(x)},
		{"stddev", StdDevQ15(q), StdDev(x)},
		{"min", MinQ15(q), Min(x)},
		{"max", MaxQ15(q), Max(x)},
		{"range", RangeQ15(q), Max(x) - Min(x)},
		{"rms", RMSQ15(q), RMS(x)},
		{"median", MedianQ15(q), Median(x)},
		{"meanAbs", MeanAbsQ15(q), MeanAbs(x)},
	}
	for _, c := range checks {
		got := FromQ15(c.fixed)
		if math.Abs(got-c.want) > tol*math.Max(1, math.Abs(c.want)) {
			t.Errorf("%s: q15 %.6f, float %.6f", c.name, got, c.want)
		}
	}
}

func TestZeroCrossingRateQ15MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 256)
	q := make([]int32, 256)
	for i := range x {
		x[i] = math.Sin(float64(i)/3) + rng.NormFloat64()*0.1
		q[i] = ToQ15(x[i])
	}
	got := FromQ15(ZeroCrossingRateQ15(q))
	want := ZeroCrossingRate(x)
	if math.Abs(got-want) > 1e-4 {
		t.Errorf("zcr: q15 %.6f, float %.6f", got, want)
	}
}

func TestThresholdQ15AgreesWithFloat(t *testing.T) {
	band, err := NewBandThreshold(-3, 6.5)
	if err != nil {
		t.Fatal(err)
	}
	ts := []*Threshold{
		NewMinThreshold(0.7),
		NewMaxThreshold(3.2),
		band,
	}
	rng := rand.New(rand.NewSource(3))
	for _, th := range ts {
		q := th.Q15()
		for i := 0; i < 2000; i++ {
			v := rng.NormFloat64() * 4
			// The fixed-point gate decides on the quantized value; the
			// float gate must agree when fed the same grid point.
			if q.AdmitsFloat(v) != th.Admits(QuantizeQ15(v)) {
				t.Fatalf("%v: gates disagree at %g", th, v)
			}
		}
	}
}

func TestMovingAveragerQ15MatchesFloat(t *testing.T) {
	f, err := NewMovingAverager(8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewMovingAveragerQ15(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		v := QuantizeQ15(rng.NormFloat64() * 3)
		fy, fok := f.Push(v)
		gy, gok := g.Push(v)
		if fok != gok {
			t.Fatalf("sample %d: emit mismatch", i)
		}
		if fok && math.Abs(fy-gy) > 1.0/Q15One {
			t.Fatalf("sample %d: float %.8f, q15 %.8f", i, fy, gy)
		}
	}
}

func TestEMAQ15Converges(t *testing.T) {
	e, err := NewEMAQ15(0.25)
	if err != nil {
		t.Fatal(err)
	}
	var y float64
	for i := 0; i < 200; i++ {
		y, _ = e.Push(1.0)
	}
	if math.Abs(y-1.0) > 1e-3 {
		t.Errorf("EMA of constant 1 converged to %g", y)
	}
	e.Reset()
	if y, _ := e.Push(0.5); y != 0.5 {
		t.Errorf("after Reset first sample primes: got %g", y)
	}
}

func TestBiquadQ15TracksFloatBiquad(t *testing.T) {
	bf, err := NewLowPassBiquad(5, 50)
	if err != nil {
		t.Fatal(err)
	}
	bq := bf.Q15()
	rng := rand.New(rand.NewSource(21))
	var worst float64
	for i := 0; i < 2000; i++ {
		v := QuantizeQ15(rng.NormFloat64() * 2)
		fy, _ := bf.Push(v)
		qy, _ := bq.Push(v)
		if d := math.Abs(fy - qy); d > worst {
			worst = d
		}
	}
	// Q30 internal state keeps the recursion tight: even this aggressive
	// cutoff (5 Hz at 50 Hz, heavy feedback) stays within ~10 Q15 steps of
	// the float filter after thousands of samples; 16 steps is the pin.
	if worst > 16.0/Q15One {
		t.Errorf("worst biquad divergence %.8f exceeds 16 Q15 steps", worst)
	}
}

// FuzzQ15Roundtrip fuzzes the float64→Q15→float64 conversion: it must
// never panic, always saturate to the format rails, quantize NaN to zero,
// and round-trip in-range values within half a quantization step.
func FuzzQ15Roundtrip(f *testing.F) {
	for _, seed := range []float64{
		0, 1, -1, 0.5, -0.5, 65535.99, -65536.5, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), 1.0 / Q15One, -0.5 / Q15One,
		9.81, -20.25, 3.0000152587890625,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		q := ToQ15(x)
		back := FromQ15(q)

		if math.IsNaN(x) {
			if q != 0 {
				t.Fatalf("ToQ15(NaN) = %d, want 0", q)
			}
			return
		}
		hi, lo := FromQ15(Q15Max), FromQ15(Q15Min)
		switch {
		case x >= hi:
			if q != Q15Max {
				t.Fatalf("ToQ15(%g) = %d, want saturation at %d", x, q, Q15Max)
			}
		case x <= lo:
			if q != Q15Min {
				t.Fatalf("ToQ15(%g) = %d, want saturation at %d", x, q, Q15Min)
			}
		default:
			// In range: the round-trip error is bounded by half a step.
			if err := math.Abs(back - x); err > 0.5/Q15One+1e-12 {
				t.Fatalf("roundtrip error %g at %g exceeds half a step", err, x)
			}
		}
		// Idempotence: re-quantizing a grid point is exact.
		if ToQ15(back) != q {
			t.Fatalf("requantize(%g): %d != %d", x, ToQ15(back), q)
		}
	})
}
