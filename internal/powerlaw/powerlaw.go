// Package powerlaw implements the execution-time model of REACT (§IV.B of
// the paper). Worker completion times are assumed to follow a power law
// p(k) ∝ k^(−α); the scaling exponent is estimated from a worker's history
// with the discrete maximum-likelihood approximation of Clauset, Shalizi and
// Newman that the paper quotes:
//
//	α = 1 + n · [ Σᵢ ln( kᵢ / (k_min − ½) ) ]⁻¹
//
// with k_min the smallest observed completion time. The complementary CDF
//
//	P(k) = Pr(K ≥ k) = (k / k_min)^(−α+1)
//
// then yields the two probabilities REACT schedules with:
//
//	Eq. 3  Pr(Exec < TTD)        = 1 − P(TTD)               (edge pruning)
//	Eq. 2  Pr(t < Exec < TTD)    = 1 − (P(TTD) + (1 − P(t))) (reassignment)
//
// Both are exposed verbatim. The scheduler asks Eq. 3 once per (worker, task)
// pair against a fixed bound, so Model.DeadlineCut prepares that question in
// log space — z = (1−α)(ln TTD − ln k_min) against ln(1−bound), no math.Pow —
// and hands every case where the two forms could disagree back to
// ProbMeetDeadline, so its verdict is always the verbatim one.
package powerlaw

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Estimation guards. An α at MaxAlpha means the history is (numerically)
// degenerate — e.g. every sample equals k_min — and the distribution is
// treated as a point mass just above k_min.
const (
	// MinAlpha is the smallest exponent Fit will return. α must exceed 1
	// for the CCDF (k/kmin)^(1−α) to decay at all.
	MinAlpha = 1.000001
	// MaxAlpha caps the exponent for degenerate histories.
	MaxAlpha = 64.0
)

// Errors returned by the fitting routines.
var (
	ErrNoSamples         = errors.New("powerlaw: no samples")
	ErrNonPositiveSample = errors.New("powerlaw: samples must be positive")
)

// Model is a fitted power-law distribution with lower bound Kmin and
// exponent Alpha. The zero value is not valid; obtain models from Fit, a
// Fitter, or construct one explicitly with New.
type Model struct {
	Alpha float64 // scaling exponent, > 1
	Kmin  float64 // lower bound of power-law behaviour, > 0
	N     int     // number of samples the fit is based on (0 if synthetic)
}

// New constructs a model directly from parameters, validating them. It is
// used by tests and by workload generators that need a ground-truth
// distribution to sample from.
func New(alpha, kmin float64) (Model, error) {
	if !(alpha > 1) || math.IsInf(alpha, 0) || math.IsNaN(alpha) {
		return Model{}, fmt.Errorf("powerlaw: alpha %v out of range (need > 1)", alpha)
	}
	if !(kmin > 0) || math.IsInf(kmin, 0) || math.IsNaN(kmin) {
		return Model{}, fmt.Errorf("powerlaw: kmin %v out of range (need > 0)", kmin)
	}
	return Model{Alpha: alpha, Kmin: kmin}, nil
}

// Fit estimates a model from a sample set using the paper's discrete MLE
// approximation. All samples must be positive. When k_min ≤ ½ the discrete
// correction k_min−½ is meaningless (non-positive denominator), so the
// continuous MLE denominator k_min is used instead; completion times in
// REACT are measured in seconds ≥ 1, where the discrete form applies.
func Fit(samples []float64) (Model, error) {
	var f Fitter
	for _, k := range samples {
		if err := f.Add(k); err != nil {
			return Model{}, err
		}
	}
	return f.Model()
}

// Fitter accumulates samples incrementally in O(1) memory. The profiling
// component keeps one Fitter per worker and refreshes the model after each
// completed task. The zero value is ready to use.
type Fitter struct {
	n      int
	sumLog float64 // Σ ln kᵢ
	min    float64
}

// Add records one completion time. Non-positive or non-finite samples are
// rejected.
func (f *Fitter) Add(k float64) error {
	if !(k > 0) || math.IsInf(k, 0) || math.IsNaN(k) {
		return fmt.Errorf("%w: got %v", ErrNonPositiveSample, k)
	}
	if f.n == 0 || k < f.min {
		f.min = k
	}
	f.n++
	f.sumLog += math.Log(k)
	return nil
}

// N reports the number of samples recorded.
func (f *Fitter) N() int { return f.n }

// State exports the accumulator for persistence: the sample count, the sum
// of sample logarithms, and the minimum sample. RestoreFitter inverts it.
func (f *Fitter) State() (n int, sumLog, min float64) {
	return f.n, f.sumLog, f.min
}

// RestoreFitter reconstructs a fitter from persisted state. Invalid state
// (negative count, non-positive min with samples present, non-finite sums)
// is rejected.
func RestoreFitter(n int, sumLog, min float64) (*Fitter, error) {
	if n < 0 {
		return nil, fmt.Errorf("powerlaw: negative sample count %d", n)
	}
	if n > 0 && !(min > 0) {
		return nil, fmt.Errorf("powerlaw: restored min %v must be positive", min)
	}
	if math.IsNaN(sumLog) || math.IsInf(sumLog, 0) || math.IsNaN(min) || math.IsInf(min, 0) {
		return nil, fmt.Errorf("powerlaw: non-finite restored state (sumLog=%v min=%v)", sumLog, min)
	}
	if n == 0 {
		return &Fitter{}, nil
	}
	return &Fitter{n: n, sumLog: sumLog, min: min}, nil
}

// Min reports the smallest sample recorded (0 before any Add).
func (f *Fitter) Min() float64 { return f.min }

// Model produces the fitted distribution. It fails only when no samples
// have been added.
func (f *Fitter) Model() (Model, error) {
	if f.n == 0 {
		return Model{}, ErrNoSamples
	}
	denom := f.min - 0.5
	if denom <= 0 {
		denom = f.min // continuous MLE fallback for sub-unit samples
	}
	// Σ ln(kᵢ/denom) = Σ ln kᵢ − n·ln denom, so the incremental sums
	// suffice even though k_min changes as samples arrive.
	s := f.sumLog - float64(f.n)*math.Log(denom)
	alpha := MaxAlpha
	if s > 0 {
		alpha = 1 + float64(f.n)/s
	}
	alpha = math.Min(math.Max(alpha, MinAlpha), MaxAlpha)
	return Model{Alpha: alpha, Kmin: f.min, N: f.n}, nil
}

// CCDF is the complementary CDF P(k) = Pr(K ≥ k). For k ≤ Kmin the
// probability is 1 by definition of the lower bound.
func (m Model) CCDF(k float64) float64 {
	if k <= m.Kmin {
		return 1
	}
	return math.Pow(k/m.Kmin, 1-m.Alpha)
}

// CDF is Pr(K < k) = 1 − CCDF(k).
func (m Model) CDF(k float64) float64 { return 1 - m.CCDF(k) }

// ProbMeetDeadline is Eq. 3: the probability that a fresh execution
// completes within timeToDeadline, 1 − P(TTD). The scheduler prunes edges
// whose value falls below the application bound.
func (m Model) ProbMeetDeadline(timeToDeadline float64) float64 {
	if timeToDeadline <= 0 {
		return 0
	}
	return 1 - m.CCDF(timeToDeadline)
}

// Eq. 3's log-space decision. With z = (1−α)(ln TTD − ln k_min),
// ProbMeetDeadline(TTD) < bound is 1 − e^z < bound, i.e. z > ln(1−bound).
// Computed z is off by at most ≈ 2e-11 anywhere in float64's range (each
// logarithm to an ulp, scaled by α−1 ≤ MaxAlpha−1) and ProbMeetDeadline's
// own rounding moves its verdict by less than 1e-12 in z while 1−bound ≥
// 0.001, so outside cutBand both sides of the comparison agree; inside it the
// exact form decides.
const (
	cutBand     = 1e-9
	cutMaxBound = 0.999 // above it 1−bound is too small for the error argument
	cutMaxRatio = 1e300 // TTD/k_min beyond this may overflow to +Inf in CCDF
)

// DeadlineCut is Eq. 3's pruning test for one model against one bound,
// prepared once so that each (worker, task) pair costs two subtractions, a
// multiply and a few compares instead of a math.Pow. Build it with
// Model.DeadlineCut.
type DeadlineCut struct {
	m             Model
	bound         float64
	oneMinusAlpha float64
	lnKmin        float64
	lnKeep        float64 // ln(1−bound): z above it prunes
	maxTTD        float64 // k_min·cutMaxRatio: beyond it the exact form decides
	fast          bool    // the error argument holds for this model and bound
}

// DeadlineCut prepares the Eq. 3 test ProbMeetDeadline(ttd) < bound. The
// fast path applies to a fitted model (1 < α ≤ MaxAlpha, finite k_min > 0)
// and a bound in (0, 0.999]; any other model or bound makes every Prunes
// call the exact form.
func (m Model) DeadlineCut(bound float64) DeadlineCut {
	c := DeadlineCut{m: m, bound: bound}
	c.fast = bound > 0 && bound <= cutMaxBound &&
		m.Alpha > 1 && m.Alpha <= MaxAlpha &&
		m.Kmin > 0 && !math.IsInf(m.Kmin, 0)
	if c.fast {
		c.oneMinusAlpha = 1 - m.Alpha
		c.lnKmin = math.Log(m.Kmin)
		c.lnKeep = math.Log(1 - bound)
		c.maxTTD = m.Kmin * cutMaxRatio
	}
	return c
}

// Prunes reports exactly ProbMeetDeadline(ttd) < bound, given lnTTD =
// math.Log(ttd) (callers testing one deadline against many models take the
// logarithm once). TTD at or below k_min always prunes; otherwise the
// log-space comparison decides unless z lies within cutBand of ln(1−bound)
// or ttd exceeds k_min·1e300, where ProbMeetDeadline itself is evaluated.
func (c DeadlineCut) Prunes(ttd, lnTTD float64) bool {
	if !c.fast || ttd > c.maxTTD {
		return c.m.ProbMeetDeadline(ttd) < c.bound
	}
	if ttd <= c.m.Kmin { // Eq. 3 is 0 here, and the bound is positive
		return true
	}
	d := c.oneMinusAlpha*(lnTTD-c.lnKmin) - c.lnKeep
	if d > cutBand {
		return true
	}
	if d < -cutBand {
		return false
	}
	return c.m.ProbMeetDeadline(ttd) < c.bound // in the band, or NaN
}

// ProbWindow is Eq. 2: the probability that the execution time lands in the
// open window (elapsed, timeToDeadline) — i.e. the task is still going to
// finish, and before its deadline — written exactly as the paper does:
// 1 − (P(TTD) + (1 − P(t))). Algebraically this is P(t) − P(TTD); the value
// is clamped to [0,1] to absorb the degenerate case elapsed ≥ TTD.
func (m Model) ProbWindow(elapsed, timeToDeadline float64) float64 {
	if timeToDeadline <= elapsed {
		return 0
	}
	p := 1 - (m.CCDF(timeToDeadline) + (1 - m.CCDF(elapsed)))
	return math.Min(math.Max(p, 0), 1)
}

// Quantile inverts the CDF: Quantile(p) is the smallest k with CDF(k) ≥ p.
// p must lie in [0,1); p=0 returns Kmin.
func (m Model) Quantile(p float64) float64 {
	if p <= 0 {
		return m.Kmin
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return m.Kmin * math.Pow(1-p, -1/(m.Alpha-1))
}

// Sample draws one value by inverse-transform sampling.
func (m Model) Sample(rng *rand.Rand) float64 {
	// rng.Float64 ∈ [0,1); use 1−u ∈ (0,1] so the pow never sees 0.
	u := 1 - rng.Float64()
	return m.Kmin * math.Pow(u, -1/(m.Alpha-1))
}

// Mean is the distribution mean k_min(α−1)/(α−2) for α > 2 and +Inf
// otherwise (heavy tails with α ≤ 2 have no finite mean — the formal reason
// crowdsourcing completion times are so hard to bound, §IV.B).
func (m Model) Mean() float64 {
	if m.Alpha <= 2 {
		return math.Inf(1)
	}
	return m.Kmin * (m.Alpha - 1) / (m.Alpha - 2)
}

// Median is Quantile(0.5), the "typical value" the paper says completion
// times cluster around.
func (m Model) Median() float64 { return m.Quantile(0.5) }

// String renders the model compactly for logs.
func (m Model) String() string {
	return fmt.Sprintf("powerlaw(α=%.3f, kmin=%.3f, n=%d)", m.Alpha, m.Kmin, m.N)
}
