// Package truth implements Step 1 of result inference (Section V-A): joint
// truth discovery over the crowd's pairwise preferences. It iterates two
// coupled updates until convergence:
//
//   - the true preference of each task is the quality-weighted average of
//     the workers' votes (Equation 4), and
//   - each worker's quality is proportional to a chi-square percentile
//     divided by the worker's total squared deviation from the estimated
//     truths (Equation 5, the CRH weight of Li et al.).
//
// The output direct preferences x̂_ij become the edge weights of the
// preference graph G_P, and the worker qualities feed Step 2's smoothing.
package truth

import (
	"fmt"
	"math"
	"sort"

	"crowdrank/internal/graph"
	"crowdrank/internal/stat"
)

// Params tunes the iterative truth-discovery loop. The zero value is not
// usable; call DefaultParams and adjust.
type Params struct {
	// Alpha is the chi-square confidence-interval parameter of Equation 5;
	// the percentile used is alpha/2. The paper does not fix a value; 0.05
	// (a 95% interval) is the convention of the cited CRH work.
	Alpha float64
	// MaxIterations caps the loop. The paper observes convergence within
	// ~10 iterations on most inputs.
	MaxIterations int
	// Tolerance declares convergence when both the preferences and the
	// qualities change by less than this amount (L-infinity) between
	// consecutive iterations.
	Tolerance float64
	// QualityFloor keeps worker qualities strictly positive so that the
	// weighted average (Equation 4) stays defined and smoothing's
	// sigma_k = -log(q_k) stays finite.
	QualityFloor float64
}

// DefaultParams returns the parameter set used throughout the paper's
// experiments reproduction.
func DefaultParams() Params {
	return Params{
		Alpha:         0.05,
		MaxIterations: 20,
		Tolerance:     1e-6,
		QualityFloor:  1e-4,
	}
}

func (p Params) validate() error {
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return fmt.Errorf("truth: alpha %v outside (0,1)", p.Alpha)
	}
	if p.MaxIterations < 1 {
		return fmt.Errorf("truth: MaxIterations must be >= 1, got %d", p.MaxIterations)
	}
	if p.Tolerance < 0 {
		return fmt.Errorf("truth: negative tolerance %v", p.Tolerance)
	}
	if p.QualityFloor <= 0 || p.QualityFloor >= 1 {
		return fmt.Errorf("truth: QualityFloor %v outside (0,1)", p.QualityFloor)
	}
	return nil
}

// Result holds the discovered truths and worker qualities.
type Result struct {
	// Preference holds x̂_IJ per pair id of the index discovered over: the
	// estimated probability that O_I ≺ O_J for the canonical pair (I < J).
	Preference []float64
	// Weight holds each worker's CRH aggregation weight (Equation 5),
	// normalized so the best worker has weight 1. These weights drive the
	// weighted average of Equation 4; their *ratios* are meaningful but
	// their absolute scale is not.
	Weight []float64
	// Quality holds each worker's estimated quality in (0, 1]: the
	// complement of the worker's mean squared deviation from the discovered
	// truths, q_k = 1 - sqErr_k/|T_k|. Unlike Weight it is bounded and
	// calibrated (a worker agreeing with every truth has quality ~1), which
	// is what Step 2's error model sigma_k = -log(q_k) requires — raw CRH
	// weight ratios can span many orders of magnitude and would make the
	// smoothing error explode. Workers who cast no votes have quality 0 and
	// take no further part in inference.
	Quality []float64
	// TaskCounts holds |T_k|, the number of votes cast by each worker.
	TaskCounts []int
	// Iterations is the number of update rounds performed.
	Iterations int
	// Converged reports whether the tolerance criterion was met before
	// MaxIterations.
	Converged bool
}

// Discover runs iterative truth discovery over the votes idx holds; there
// must be at least one. Each update is one pass over the vote log, so
// every sum runs in vote order — each pair's Equation 4 average over the
// pair's votes, each worker's squared error over the worker's votes — and
// the result is the same bit for bit however the votes were split across
// Add calls.
func Discover(idx *Index, p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if idx.Len() == 0 {
		return nil, fmt.Errorf("truth: no votes to aggregate")
	}
	m := idx.M()
	taskCounts := make([]int, m)
	for w := range taskCounts {
		taskCounts[w] = idx.WorkerVotes(w)
	}

	// Each worker's chi-square percentile χ²(α/2, |T_k|), computed once
	// per distinct task count.
	chi := make([]float64, m)
	chiByCount := make(map[int]float64)
	for w, c := range taskCounts {
		if c == 0 {
			continue
		}
		q, ok := chiByCount[c]
		if !ok {
			var err error
			if q, err = stat.ChiSquareQuantile(p.Alpha/2, float64(c)); err != nil {
				return nil, fmt.Errorf("truth: chi-square percentile for df=%d: %w", c, err)
			}
			chiByCount[c] = q
		}
		chi[w] = q
	}

	weight := make([]float64, m)
	for w := range weight {
		if taskCounts[w] > 0 {
			weight[w] = 1 // paper: start with equal quality
		}
	}
	pref := make([]float64, idx.Pairs())
	prevPref := make([]float64, len(pref))
	den := make([]float64, len(pref))
	prevWeight := make([]float64, m)
	sqErr := make([]float64, m)

	iterations := 0
	converged := false
	for iterations < p.MaxIterations {
		iterations++
		copy(prevPref, pref)
		copy(prevWeight, weight)

		updatePreferences(idx, weight, pref, den)
		squaredErrors(idx, pref, sqErr)
		updateWeights(sqErr, taskCounts, chi, weight, p.QualityFloor)

		if iterations > 1 && maxDelta(pref, prevPref) < p.Tolerance && maxDelta(weight, prevWeight) < p.Tolerance {
			converged = true
			break
		}
	}

	squaredErrors(idx, pref, sqErr)
	return &Result{
		Preference: pref,
		Weight:     weight,
		Quality:    boundedQualities(sqErr, taskCounts, p.QualityFloor),
		TaskCounts: taskCounts,
		Iterations: iterations,
		Converged:  converged,
	}, nil
}

// boundedQualities derives the calibrated per-worker quality
// q_k = 1 - sqErr_k/|T_k| in [floor, 1], the complement of the mean squared
// deviation from the discovered truths.
func boundedQualities(sqErr []float64, taskCounts []int, floor float64) []float64 {
	quality := make([]float64, len(taskCounts))
	for w := range quality {
		if taskCounts[w] == 0 {
			continue
		}
		q := 1 - sqErr[w]/float64(taskCounts[w])
		if q < floor {
			q = floor
		}
		if q > 1 {
			q = 1
		}
		quality[w] = q
	}
	return quality
}

// updatePreferences applies Equation 4: the weight-averaged vote per pair,
// in one pass over the vote log that sums each pair's numerator into pref
// and its denominator into den, so each pair's terms add in vote order.
func updatePreferences(idx *Index, weight, pref, den []float64) {
	clear(pref)
	clear(den)
	for _, c := range idx.log {
		for _, e := range c {
			q := weight[e.wv>>1]
			pref[e.pair] += float64(e.wv&1) * q
			den[e.pair] += q
		}
	}
	for id, d := range den {
		if d > 0 {
			pref[id] /= d
		} else {
			pref[id] = 0.5 // no usable votes: maximal uncertainty
		}
	}
}

// squaredErrors fills sqErr[k] with Σ (x^k - x̂)² over worker k's votes,
// in one pass over the vote log, so each worker's terms add in vote order.
func squaredErrors(idx *Index, pref, sqErr []float64) {
	clear(sqErr)
	for _, c := range idx.log {
		for _, e := range c {
			d := float64(e.wv&1) - pref[e.pair]
			sqErr[e.wv>>1] += d * d
		}
	}
}

// updateWeights applies Equation 5: w_k ∝ χ²(α/2, |T_k|) / Σ (x^k - x̂)²,
// then normalizes the weights so the best worker has weight 1. The squared
// error is floored at a quarter of one full disagreement so a
// perfectly-agreeing worker's weight stays finite without dwarfing everyone
// else by orders of magnitude.
func updateWeights(sqErr []float64, taskCounts []int, chi, weight []float64, floor float64) {
	maxW := 0.0
	for w := range weight {
		if taskCounts[w] == 0 {
			weight[w] = 0
			continue
		}
		denom := math.Max(sqErr[w], 0.25)
		weight[w] = chi[w] / denom
		if weight[w] > maxW {
			maxW = weight[w]
		}
	}
	if maxW <= 0 {
		// Degenerate: every active worker has zero chi-square mass. Reset
		// to equal weight rather than dividing by zero.
		for w := range weight {
			if taskCounts[w] > 0 {
				weight[w] = 1
			}
		}
		return
	}
	for w := range weight {
		if taskCounts[w] == 0 {
			continue
		}
		weight[w] /= maxW
		if weight[w] < floor {
			weight[w] = floor
		}
	}
}

func maxDelta(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > max {
			max = d
		}
	}
	return max
}

// SuspectWorkers returns the workers whose estimated quality falls below
// threshold (excluding workers who cast no votes), sorted by ascending
// quality — the requester-side spam/adversary report. A threshold around
// 0.75 flags coin-flippers and adversaries on typical workloads; see the
// workerquality example.
func (r *Result) SuspectWorkers(threshold float64) []int {
	var suspects []int
	for w, q := range r.Quality {
		if r.TaskCounts[w] > 0 && q < threshold {
			suspects = append(suspects, w)
		}
	}
	sort.Slice(suspects, func(a, b int) bool {
		return r.Quality[suspects[a]] < r.Quality[suspects[b]]
	})
	return suspects
}

// BuildPreferenceGraph converts discovered direct preferences, indexed by
// the pair ids of idx, into the weighted directed preference graph G_P:
// for each canonical pair (i, j) with preference x̂, edge i->j gets weight
// x̂ and edge j->i gets 1-x̂; a weight of zero means no edge, per the
// paper's convention. Unanimous preferences therefore produce the 1-edges
// that Step 2 smooths. Adjacency lists come out ascending, so every
// downstream float summation and randomness consumption order is fixed.
func BuildPreferenceGraph(idx *Index, preference []float64) (*graph.PreferenceGraph, error) {
	if len(preference) != idx.Pairs() {
		return nil, fmt.Errorf("truth: %d preferences for %d pairs", len(preference), idx.Pairs())
	}
	w := graph.NewMatrix(idx.N())
	for id, x := range preference {
		pr := idx.Pair(id)
		if x < 0 || x > 1 || math.IsNaN(x) {
			return nil, fmt.Errorf("truth: preference %v for pair %v outside [0,1]", x, pr)
		}
		w[pr.I][pr.J], w[pr.J][pr.I] = x, 1-x
	}
	g, err := graph.FromWeights(w)
	if err != nil {
		return nil, fmt.Errorf("truth: %w", err)
	}
	return g, nil
}
