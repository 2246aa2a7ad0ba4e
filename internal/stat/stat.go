// Package stat provides the numerical substrate for crowdrank.
//
// The paper's truth-discovery step (Section V-A) weights each worker by a
// chi-square percentile divided by the worker's total squared error
// (Equation 5), and the simulation setting draws worker error rates from
// normal and uniform distributions. Go's standard library offers math.Lgamma
// and little else, so this package implements the required special functions
// from scratch: the regularized incomplete gamma function, the chi-square
// CDF and quantile, and the inverse normal CDF. All routines are pure
// functions with no global state.
package stat

import (
	"errors"
	"fmt"
	"math"

	"crowdrank/internal/feq"
)

// Numerical tuning constants for the special-function evaluators. They
// mirror the classical Numerical Recipes tolerances, which are tight enough
// for the [1e-8, 1-1e-8] probability range used by truth discovery.
const (
	maxIterations = 500
	epsilon       = 3.0e-14
	tiny          = 1.0e-300
)

// ErrConvergence is returned (wrapped) when an iterative special-function
// evaluation fails to converge within maxIterations. It indicates arguments
// far outside the supported range rather than a recoverable condition.
var ErrConvergence = errors.New("stat: series did not converge")

// GammaP computes the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x >= 0.
//
// P(a, x) is the CDF of a Gamma(shape=a, scale=1) random variable at x; the
// chi-square CDF is P(df/2, x/2). The series expansion converges fastest for
// x < a+1 and the continued fraction elsewhere, so the function dispatches
// on that boundary.
func GammaP(a, x float64) (float64, error) {
	switch {
	case a <= 0:
		return 0, fmt.Errorf("stat: GammaP requires a > 0, got a=%v", a)
	case x < 0:
		return 0, fmt.Errorf("stat: GammaP requires x >= 0, got x=%v", x)
	case feq.Zero(x):
		return 0, nil
	case math.IsInf(x, 1):
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaSeries(a, x)
		if err != nil {
			return 0, err
		}
		return p, nil
	}
	q, err := gammaContinuedFraction(a, x)
	if err != nil {
		return 0, err
	}
	return 1 - q, nil
}

// gammaIterations returns the iteration budget for the series / continued
// fraction: convergence near x ~ a needs O(sqrt(a)) terms, so the budget
// grows with a.
func gammaIterations(a float64) int {
	n := int(20*math.Sqrt(a)) + maxIterations
	return n
}

// gammaSeries evaluates P(a, x) by its power series, valid for x < a+1.
func gammaSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for n := 0; n < gammaIterations(a); n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*epsilon {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, fmt.Errorf("%w: gammaSeries(a=%v, x=%v)", ErrConvergence, a, x)
}

// gammaContinuedFraction evaluates Q(a, x) by the Lentz modified continued
// fraction, valid for x >= a+1.
func gammaContinuedFraction(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1.0 / tiny
	d := 1.0 / b
	h := d
	for i := 1; i <= gammaIterations(a); i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsilon {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, fmt.Errorf("%w: gammaContinuedFraction(a=%v, x=%v)", ErrConvergence, a, x)
}

// ChiSquareCDF returns P(X <= x) for a chi-square random variable X with df
// degrees of freedom. df may be fractional (df > 0).
func ChiSquareCDF(x float64, df float64) (float64, error) {
	if df <= 0 {
		return 0, fmt.Errorf("stat: ChiSquareCDF requires df > 0, got df=%v", df)
	}
	if x <= 0 {
		return 0, nil
	}
	return GammaP(df/2, x/2)
}

// ChiSquarePDF returns the chi-square density at x for df degrees of freedom.
func ChiSquarePDF(x float64, df float64) float64 {
	if df <= 0 || x <= 0 {
		return 0
	}
	half := df / 2
	lg, _ := math.Lgamma(half)
	logPDF := (half-1)*math.Log(x) - x/2 - half*math.Ln2 - lg
	return math.Exp(logPDF)
}

// ChiSquareQuantile returns the p-th quantile of the chi-square distribution
// with df degrees of freedom: the x such that ChiSquareCDF(x, df) = p.
//
// Truth discovery (Equation 5 of the paper) calls this with p = alpha/2 and
// df = |T_k|, the number of tasks answered by worker k. The implementation
// seeds with the Wilson-Hilferty normal approximation and polishes with
// Newton iterations on the CDF, falling back to bisection when Newton steps
// leave the bracket.
func ChiSquareQuantile(p float64, df float64) (float64, error) {
	switch {
	case df <= 0:
		return 0, fmt.Errorf("stat: ChiSquareQuantile requires df > 0, got df=%v", df)
	case p < 0 || p > 1:
		return 0, fmt.Errorf("stat: ChiSquareQuantile requires 0 <= p <= 1, got p=%v", p)
	case feq.Zero(p):
		return 0, nil
	case feq.One(p):
		return math.Inf(1), nil
	}

	x := wilsonHilferty(p, df)
	if x <= 0 || math.IsNaN(x) {
		x = df // crude but safe seed for extreme p
	}
	// For very large df the Wilson-Hilferty approximation is accurate to
	// many digits and Newton refinement of the incomplete gamma becomes
	// needlessly expensive; return it directly.
	if df > 5000 {
		return x, nil
	}

	// Newton iterations with a maintained bracket [lo, hi].
	lo, hi := 0.0, math.Max(4*df+20, 4*x+20)
	for cdfHi, err := ChiSquareCDF(hi, df); err == nil && cdfHi < p; cdfHi, err = ChiSquareCDF(hi, df) {
		hi *= 2
		if math.IsInf(hi, 1) {
			return 0, fmt.Errorf("stat: ChiSquareQuantile bracket overflow (p=%v, df=%v)", p, df)
		}
	}
	for i := 0; i < 200; i++ {
		cdf, err := ChiSquareCDF(x, df)
		if err != nil {
			return 0, err
		}
		diff := cdf - p
		if math.Abs(diff) < 1e-12 {
			return x, nil
		}
		if diff > 0 {
			hi = x
		} else {
			lo = x
		}
		pdf := ChiSquarePDF(x, df)
		var next float64
		if pdf > tiny {
			next = x - diff/pdf
		}
		if pdf <= tiny || next <= lo || next >= hi {
			next = (lo + hi) / 2 // bisection fallback keeps the bracket shrinking
		}
		if math.Abs(next-x) < 1e-13*(1+x) {
			return next, nil
		}
		x = next
	}
	return x, nil
}

// wilsonHilferty is the classical cube-root normal approximation to the
// chi-square quantile, used to seed Newton iteration.
func wilsonHilferty(p, df float64) float64 {
	z := NormalQuantile(p)
	t := 1 - 2/(9*df) + z*math.Sqrt(2/(9*df))
	return df * t * t * t
}

// NormalCDF returns P(Z <= z) for a standard normal Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the p-th quantile of the standard normal
// distribution using Acklam's rational approximation refined by one Halley
// step, accurate to ~1e-15 over (0, 1). It returns -Inf/+Inf at p = 0/1 and
// NaN outside [0, 1].
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case feq.Zero(p):
		return math.Inf(-1)
	case feq.One(p):
		return math.Inf(1)
	}

	// Coefficients for Acklam's approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}

	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}
