package powerlaw

import (
	"math"
	"math/rand"
	"testing"
)

// overflowCase is the input on which the log-space decision, without the
// k_min·1e300 guard, disagreed with ProbMeetDeadline: ttd/k_min overflows
// to +Inf, math.Pow returns 0 and Eq. 3 keeps the edge, while z says prune.
var overflowCase = struct{ alpha, kmin, bound, ttd float64 }{
	1.001968373400873, 0.027962533927733964, 0.9, 1.7976931348623141e308,
}

// cutThreshold is the analytic TTD at which Eq. 3 equals bound: the root of
// (1−α)(ln TTD − ln k_min) = ln(1−bound).
func cutThreshold(m Model, bound float64) float64 {
	return m.Kmin * math.Exp(math.Log(1-bound)/(1-m.Alpha))
}

// stepUlps moves x by k float64 steps (towards +Inf for k > 0).
func stepUlps(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// checkCut fails t unless the prepared cut agrees with the verbatim Eq. 3
// test on ttd, and reports whether the log-space comparison (not the exact
// fallback) decided.
func checkCut(t testing.TB, c DeadlineCut, ttd float64) (fast bool) {
	t.Helper()
	got := c.Prunes(ttd, math.Log(ttd))
	want := c.m.ProbMeetDeadline(ttd) < c.bound
	if got != want {
		t.Fatalf("α=%v k_min=%v bound=%v ttd=%v: Prunes=%v, ProbMeetDeadline(ttd)=%v < bound is %v",
			c.m.Alpha, c.m.Kmin, c.bound, ttd, got, c.m.ProbMeetDeadline(ttd), want)
	}
	if !c.fast || ttd > c.maxTTD || !(ttd > c.m.Kmin) {
		return false
	}
	d := c.oneMinusAlpha*(math.Log(ttd)-c.lnKmin) - c.lnKeep
	return d > cutBand || d < -cutBand
}

// TestDeadlineCutMatchesProbMeetDeadline runs well over a million seeded
// cases through Prunes and requires ProbMeetDeadline's verdict on every one:
// α at MinAlpha, MaxAlpha and between, k_min over e^±15, the bounds the
// scheduler can be given (and 1, which only the fallback handles), TTD on
// the ten float64 neighbours either side of the analytic threshold, at or
// below k_min, at the overflow edge of TTD/k_min, and spread over the range
// between.
func TestDeadlineCutMatchesProbMeetDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	bounds := []float64{0.01, 0.1, 0.5, 0.9, 0.999, 1}
	cases, fast := 0, 0
	check := func(c DeadlineCut, ttd float64) {
		cases++
		if checkCut(t, c, ttd) {
			fast++
		}
	}
	for cases < 1_200_000 {
		var alpha float64
		switch rng.Intn(4) {
		case 0:
			alpha = MinAlpha
		case 1:
			alpha = MaxAlpha
		case 2:
			alpha = 1 + math.Pow(10, -6+6*rng.Float64()) // crowded near 1
		default:
			alpha = MinAlpha + (MaxAlpha-MinAlpha)*rng.Float64()
		}
		m := Model{Alpha: alpha, Kmin: math.Exp(-15 + 30*rng.Float64())}
		bound := bounds[rng.Intn(len(bounds))]
		if rng.Intn(4) == 0 {
			bound = rng.Float64()
		}
		c := m.DeadlineCut(bound)
		th := cutThreshold(m, bound)
		if !math.IsInf(th, 0) {
			for k := -10; k <= 10; k++ {
				check(c, stepUlps(th, k))
			}
		} else {
			th = m.Kmin
		}
		// Around the threshold at every scale from inside the band out.
		for i := 0; i < 40; i++ {
			check(c, th*math.Exp(rng.NormFloat64()*math.Pow(10, -9+10*rng.Float64())))
		}
		for _, ttd := range []float64{
			-1, 0, m.Kmin, stepUlps(m.Kmin, -1), stepUlps(m.Kmin, 1), m.Kmin * rng.Float64(),
			m.Kmin * cutMaxRatio, stepUlps(m.Kmin*cutMaxRatio, 1), math.MaxFloat64, math.Inf(1),
			m.Kmin * math.Exp(700*rng.Float64()),
			m.Kmin * (1 + rng.Float64()),
		} {
			check(c, ttd)
		}
	}
	c := Model{Alpha: overflowCase.alpha, Kmin: overflowCase.kmin}.DeadlineCut(overflowCase.bound)
	check(c, overflowCase.ttd)
	// A good share of decisions must come from the log-space comparison, or
	// the test above proves nothing about it.
	if fast < cases/3 {
		t.Fatalf("only %d of %d cases took the log-space path", fast, cases)
	}
	t.Logf("%d cases, %d decided in log space", cases, fast)
}

// TestDeadlineCutFallsBackOutsideItsDomain checks the inputs the error
// argument does not cover: bounds outside (0, 0.999], models no fit yields,
// and a NaN time to deadline. Each must return the verbatim verdict.
func TestDeadlineCutFallsBackOutsideItsDomain(t *testing.T) {
	for _, m := range []Model{{Alpha: 2.5, Kmin: 2}, {Alpha: 1e6, Kmin: 2}, {}, {Alpha: 2, Kmin: math.Inf(1)}} {
		for _, bound := range []float64{-0.5, 0, 1e-300, 0.9995, 1, 1.5, math.NaN()} {
			c := m.DeadlineCut(bound)
			for _, ttd := range []float64{-3, 0, 1, 2, 3, 10, 1e9, math.NaN()} {
				checkCut(t, c, ttd)
			}
		}
		checkCut(t, m.DeadlineCut(0.1), math.NaN())
	}
}

// FuzzDeadlineCut searches for a disagreement between Prunes and
// ProbMeetDeadline. A non-zero step replaces ttd with the float64 that many
// steps from the analytic threshold, where the two forms are closest.
func FuzzDeadlineCut(f *testing.F) {
	f.Add(overflowCase.alpha, overflowCase.kmin, overflowCase.bound, overflowCase.ttd, int8(0))
	f.Add(MinAlpha, 1.0, 0.1, 0.0, int8(1))
	f.Add(MaxAlpha, 3e-7, 0.999, 0.0, int8(-1))
	f.Add(2.5, 4.0, 0.5, 3.9, int8(0))
	f.Fuzz(func(t *testing.T, alpha, kmin, bound, ttd float64, step int8) {
		m := Model{Alpha: alpha, Kmin: kmin}
		if step != 0 {
			th := cutThreshold(m, bound)
			if math.IsNaN(th) || math.IsInf(th, 0) {
				return
			}
			ttd = stepUlps(th, int(step))
		}
		checkCut(t, m.DeadlineCut(bound), ttd)
	})
}

func BenchmarkDeadlineCut(b *testing.B) {
	m, _ := New(2.3, 1.5)
	c := m.DeadlineCut(0.1)
	lnTTD := math.Log(4)
	b.Run("Prunes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if c.Prunes(4, lnTTD) {
				b.Fatal("pruned")
			}
		}
	})
	b.Run("ProbMeetDeadline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if m.ProbMeetDeadline(4) < 0.1 {
				b.Fatal("pruned")
			}
		}
	})
}
