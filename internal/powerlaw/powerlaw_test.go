package powerlaw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustModel(t *testing.T, alpha, kmin float64) Model {
	t.Helper()
	m, err := New(alpha, kmin)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidates(t *testing.T) {
	cases := []struct {
		alpha, kmin float64
		ok          bool
	}{
		{2.5, 1, true},
		{1.0001, 0.5, true},
		{1, 1, false},   // alpha must exceed 1
		{0.5, 1, false}, // alpha below 1
		{2, 0, false},   // kmin must be positive
		{2, -3, false},  // negative kmin
		{math.NaN(), 1, false},
		{2, math.NaN(), false},
		{math.Inf(1), 1, false},
	}
	for _, c := range cases {
		_, err := New(c.alpha, c.kmin)
		if (err == nil) != c.ok {
			t.Errorf("New(%v, %v) err=%v, want ok=%v", c.alpha, c.kmin, err, c.ok)
		}
	}
}

func TestFitRejectsBadSamples(t *testing.T) {
	if _, err := Fit(nil); err != ErrNoSamples {
		t.Errorf("Fit(nil) err = %v, want ErrNoSamples", err)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Fit([]float64{2, bad, 3}); err == nil {
			t.Errorf("Fit with sample %v accepted", bad)
		}
	}
}

func TestFitMatchesPaperFormula(t *testing.T) {
	// Hand-computed α = 1 + n[Σ ln(k_i/(kmin−½))]⁻¹ for a fixed set.
	samples := []float64{2, 4, 8, 16}
	kmin := 2.0
	var s float64
	for _, k := range samples {
		s += math.Log(k / (kmin - 0.5))
	}
	want := 1 + 4/s
	m, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Alpha-want) > 1e-12 {
		t.Fatalf("Alpha = %v, want %v", m.Alpha, want)
	}
	if m.Kmin != 2 {
		t.Fatalf("Kmin = %v, want 2", m.Kmin)
	}
	if m.N != 4 {
		t.Fatalf("N = %v, want 4", m.N)
	}
}

func TestFitDegenerateHistoryCapsAlpha(t *testing.T) {
	// All samples at kmin with kmin < 0.5 uses the continuous denominator,
	// making Σ ln(k/kmin) = 0 → capped α.
	m, err := Fit([]float64{0.25, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if m.Alpha != MaxAlpha {
		t.Fatalf("degenerate fit Alpha = %v, want MaxAlpha", m.Alpha)
	}
}

func TestFitterIncrementalEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	truth := mustModel(t, 2.3, 1.5)
	samples := make([]float64, 500)
	var f Fitter
	for i := range samples {
		samples[i] = truth.Sample(rng)
		if err := f.Add(samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	inc, err := f.Model()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inc.Alpha-batch.Alpha) > 1e-9 || inc.Kmin != batch.Kmin || inc.N != batch.N {
		t.Fatalf("incremental %+v != batch %+v", inc, batch)
	}
}

func TestFitRecoversExponent(t *testing.T) {
	// Sampling from a known model and refitting should recover α within a
	// few percent at n=20000. Use a large kmin so the paper's discrete −½
	// correction (designed for integer-valued data) is negligible against
	// the continuous samples we draw.
	rng := rand.New(rand.NewSource(7))
	for _, alpha := range []float64{1.8, 2.5, 3.5} {
		truth := mustModel(t, alpha, 100)
		var f Fitter
		for i := 0; i < 20000; i++ {
			if err := f.Add(truth.Sample(rng)); err != nil {
				t.Fatal(err)
			}
		}
		m, err := f.Model()
		if err != nil {
			t.Fatal(err)
		}
		// The discrete −½ correction biases slightly for continuous data;
		// accept 10% relative error.
		if rel := math.Abs(m.Alpha-alpha) / alpha; rel > 0.10 {
			t.Errorf("alpha %v: fitted %v (rel err %.3f)", alpha, m.Alpha, rel)
		}
	}
}

func TestCCDFBoundsAndMonotonicity(t *testing.T) {
	m := mustModel(t, 2.5, 2)
	if got := m.CCDF(1); got != 1 {
		t.Fatalf("CCDF below kmin = %v, want 1", got)
	}
	if got := m.CCDF(2); got != 1 {
		t.Fatalf("CCDF at kmin = %v, want 1", got)
	}
	prev := 1.0
	for k := 2.0; k < 1000; k *= 1.3 {
		p := m.CCDF(k)
		if p < 0 || p > 1 {
			t.Fatalf("CCDF(%v) = %v out of [0,1]", k, p)
		}
		if p > prev {
			t.Fatalf("CCDF increased at %v: %v > %v", k, p, prev)
		}
		prev = p
	}
	if m.CCDF(1e12) > 1e-6 {
		t.Fatalf("CCDF tail did not vanish: %v", m.CCDF(1e12))
	}
}

func TestCDFComplementsCCDF(t *testing.T) {
	m := mustModel(t, 2.2, 1)
	for k := 0.5; k < 100; k *= 1.7 {
		if got := m.CDF(k) + m.CCDF(k); math.Abs(got-1) > 1e-12 {
			t.Fatalf("CDF+CCDF at %v = %v", k, got)
		}
	}
}

func TestEq3ProbMeetDeadline(t *testing.T) {
	m := mustModel(t, 2.5, 2)
	if got := m.ProbMeetDeadline(0); got != 0 {
		t.Fatalf("ProbMeetDeadline(0) = %v, want 0", got)
	}
	if got := m.ProbMeetDeadline(-5); got != 0 {
		t.Fatalf("ProbMeetDeadline(-5) = %v, want 0", got)
	}
	// At the lower bound everything is still ahead: probability 0.
	if got := m.ProbMeetDeadline(2); got != 0 {
		t.Fatalf("ProbMeetDeadline(kmin) = %v, want 0", got)
	}
	// Far beyond the typical value the probability approaches 1.
	if got := m.ProbMeetDeadline(1e9); got < 0.999999 {
		t.Fatalf("ProbMeetDeadline(huge) = %v", got)
	}
	// Monotone in the deadline.
	prev := 0.0
	for ttd := 2.0; ttd < 500; ttd *= 1.5 {
		p := m.ProbMeetDeadline(ttd)
		if p < prev {
			t.Fatalf("Eq.3 not monotone at %v", ttd)
		}
		prev = p
	}
}

func TestEq2MatchesAlgebraicForm(t *testing.T) {
	// The paper writes Eq.2 as 1 − (P(TTD) + (1 − P(t))); check it equals
	// P(t) − P(TTD) wherever the window is non-degenerate.
	m := mustModel(t, 2.1, 1)
	for _, tc := range []struct{ t, ttd float64 }{
		{1, 10}, {2, 3}, {5, 100}, {0.5, 2},
	} {
		want := m.CCDF(tc.t) - m.CCDF(tc.ttd)
		if want < 0 {
			want = 0
		}
		got := m.ProbWindow(tc.t, tc.ttd)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("ProbWindow(%v,%v) = %v, want %v", tc.t, tc.ttd, got, want)
		}
	}
}

func TestEq2DegenerateWindow(t *testing.T) {
	m := mustModel(t, 2.5, 1)
	if got := m.ProbWindow(10, 10); got != 0 {
		t.Fatalf("ProbWindow(t==TTD) = %v, want 0", got)
	}
	if got := m.ProbWindow(20, 10); got != 0 {
		t.Fatalf("ProbWindow(t>TTD) = %v, want 0", got)
	}
}

func TestEq2ShrinksAsTimePasses(t *testing.T) {
	// As elapsed time grows toward a fixed deadline, the probability of
	// finishing in the remaining window must not increase — this is the
	// monotonicity the reassignment monitor relies on.
	m := mustModel(t, 2.0, 1)
	const ttd = 120.0
	prev := 1.0
	for elapsed := 1.0; elapsed < ttd; elapsed += 5 {
		p := m.ProbWindow(elapsed, ttd)
		if p > prev+1e-12 {
			t.Fatalf("Eq.2 increased at elapsed=%v: %v > %v", elapsed, p, prev)
		}
		prev = p
	}
}

func TestQuantileInvertsCDF(t *testing.T) {
	m := mustModel(t, 2.7, 3)
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
		k := m.Quantile(p)
		if got := m.CDF(k); math.Abs(got-p) > 1e-9 {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if !math.IsInf(m.Quantile(1), 1) {
		t.Fatal("Quantile(1) should be +Inf")
	}
	if m.Quantile(0) != 3 {
		t.Fatalf("Quantile(0) = %v, want kmin", m.Quantile(0))
	}
}

func TestSampleRespectsLowerBoundAndMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := mustModel(t, 2.5, 2)
	const n = 50000
	below := 0
	underMedian := 0
	for i := 0; i < n; i++ {
		s := m.Sample(rng)
		if s < m.Kmin {
			below++
		}
		if s < m.Median() {
			underMedian++
		}
	}
	if below != 0 {
		t.Fatalf("%d samples below kmin", below)
	}
	frac := float64(underMedian) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("fraction under median = %v, want ≈0.5", frac)
	}
}

func TestMean(t *testing.T) {
	m := mustModel(t, 3, 2)
	if got, want := m.Mean(), 2*2.0/1.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	heavy := mustModel(t, 1.9, 2)
	if !math.IsInf(heavy.Mean(), 1) {
		t.Fatalf("Mean for α≤2 = %v, want +Inf", heavy.Mean())
	}
	// Empirical check: sample mean approaches analytic mean for α=3.
	rng := rand.New(rand.NewSource(5))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += m.Sample(rng)
	}
	if got := sum / n; math.Abs(got-m.Mean())/m.Mean() > 0.05 {
		t.Fatalf("empirical mean %v, analytic %v", got, m.Mean())
	}
}

func TestStringFormat(t *testing.T) {
	m := mustModel(t, 2.5, 1.25)
	if got := m.String(); got != "powerlaw(α=2.500, kmin=1.250, n=0)" {
		t.Fatalf("String() = %q", got)
	}
}

// Property: for any positive samples, the fitted model is valid (α in
// range, kmin = min sample) and its CCDF is within bounds and monotone on a
// grid.
func TestQuickFitProducesValidModel(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, 0, len(raw))
		min := math.Inf(1)
		for _, r := range raw {
			k := 1 + float64(r%130) // completion times 1..130s as in the paper
			samples = append(samples, k)
			if k < min {
				min = k
			}
		}
		m, err := Fit(samples)
		if err != nil {
			return false
		}
		if m.Alpha < MinAlpha || m.Alpha > MaxAlpha || m.Kmin != min {
			return false
		}
		prev := 1.0
		for k := min; k < 10*min; k += min / 2 {
			p := m.CCDF(k)
			if p < 0 || p > prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Eq.2 and Eq.3 always produce probabilities in [0,1].
func TestQuickProbabilitiesInRange(t *testing.T) {
	f := func(a, k, t1, t2 uint16) bool {
		alpha := 1.01 + float64(a%400)/100 // 1.01..5.01
		kmin := 0.5 + float64(k%100)
		m, err := New(alpha, kmin)
		if err != nil {
			return false
		}
		elapsed := float64(t1)
		ttd := float64(t2)
		p2 := m.ProbWindow(elapsed, ttd)
		p3 := m.ProbMeetDeadline(ttd)
		return p2 >= 0 && p2 <= 1 && p3 >= 0 && p3 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

// Property: sampling then refitting recovers kmin exactly and a usable α.
func TestQuickSampleFitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(a uint8) bool {
		alpha := 1.5 + float64(a%25)/10 // 1.5..3.9
		truth, err := New(alpha, 2)
		if err != nil {
			return false
		}
		var fit Fitter
		for i := 0; i < 2000; i++ {
			if err := fit.Add(truth.Sample(rng)); err != nil {
				return false
			}
		}
		m, err := fit.Model()
		if err != nil {
			return false
		}
		return m.Kmin >= 2 && m.Alpha > 1 && math.Abs(m.Alpha-alpha)/alpha < 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFitterAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, _ := New(2.5, 1)
	samples := make([]float64, 1024)
	for i := range samples {
		samples[i] = m.Sample(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var f Fitter
	for i := 0; i < b.N; i++ {
		_ = f.Add(samples[i%len(samples)])
	}
}

func BenchmarkProbWindow(b *testing.B) {
	m, _ := New(2.3, 1.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.ProbWindow(float64(i%60)+1, 120)
	}
}
