// Package search implements Step 4 of result inference (Section V-D):
// finding the Hamiltonian path of maximum preference probability
// Pr[P] = prod w_ij over the complete normalized closure G_P^*.
//
// Four searchers are provided:
//
//   - BruteForce: evaluates every permutation; the ground-truth oracle for
//     tests (n <= ~10).
//   - TAPS: the paper's exact threshold-based path search, a Threshold
//     Algorithm over n-1 per-position sorted path lists with early
//     termination. Faithful to the paper, and therefore factorial in space
//     (the paper itself states n!(2n-1) entries), so it is practical to
//     n ~ 9 — enough for the paper's 10-image AMT setting.
//   - HeldKarp: exact dynamic programming over vertex subsets in
//     O(2^n n^2), the exact reference for mid-size instances (n <= ~20,
//     the paper's 20-image setting).
//   - SAPS: the paper's simulated-annealing path search (Algorithms 2-3),
//     the scalable heuristic used in all large experiments.
//
// Beyond the paper, BranchAndBound proves all-pairs optimality on
// near-consistent closures past Held-Karp's reach, InsertionPolish
// refines any ranking to an insertion local optimum, and Greedy — the
// net-score order so refined — is the deterministic floor the ranking
// daemon serves when exact search cannot answer.
//
// All searchers maximize the product of edge weights, equivalently minimize
// sum of log(1/w); they require a complete graph with strictly positive
// weights, which Step 3's closure guarantees.
package search

import (
	"fmt"
	"math"

	"crowdrank/internal/graph"
)

// Result is the outcome of a best-ranking search.
type Result struct {
	// Path is the best Hamiltonian path found, listed most-preferred first:
	// Path[k] is ranked before Path[k+1].
	Path []int
	// LogProb is sum over consecutive pairs of log w; the preference
	// probability is exp(LogProb).
	LogProb float64
	// Prob is exp(LogProb). For large n it can underflow to zero even
	// though LogProb remains meaningful; compare LogProb, not Prob.
	Prob float64
	// Evaluations counts full or incremental path evaluations performed,
	// for the time-performance experiments.
	Evaluations int
}

// logWeights precomputes c[i][j] = log(w_ij), validating completeness.
func logWeights(g *graph.PreferenceGraph) ([][]float64, error) {
	if g == nil {
		return nil, fmt.Errorf("search: nil preference graph")
	}
	n := g.N()
	if n < 1 {
		return nil, fmt.Errorf("search: empty graph")
	}
	logw := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range logw {
		logw[i], backing = backing[:n:n], backing[n:]
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			w := g.Weight(i, j)
			if w <= 0 {
				return nil, fmt.Errorf("search: graph is not complete: missing weight for edge (%d,%d); run preference propagation first", i, j)
			}
			logw[i][j] = math.Log(w)
		}
	}
	return logw, nil
}

// checkPermutation reports whether path lists each of n objects once.
func checkPermutation(path []int, n int) error {
	if len(path) != n {
		return fmt.Errorf("search: path length %d does not match graph size %d", len(path), n)
	}
	seen := make([]bool, n)
	for _, v := range path {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("search: path is not a permutation")
		}
		seen[v] = true
	}
	return nil
}

// pathLogProb sums log-weights along path.
func pathLogProb(logw [][]float64, path []int) float64 {
	sum := 0.0
	for k := 1; k < len(path); k++ {
		sum += logw[path[k-1]][path[k]]
	}
	return sum
}

func newResult(path []int, logProb float64, evals int) *Result {
	out := make([]int, len(path))
	copy(out, path)
	return &Result{
		Path:        out,
		LogProb:     logProb,
		Prob:        math.Exp(logProb),
		Evaluations: evals,
	}
}

// BruteForce finds the exact best ranking under the objective by
// enumerating all n! permutations with Heap's algorithm. It refuses
// n > maxN (pass 0 for the default limit of 10) because the cost is
// factorial.
//
//lint:ignore ctxloop bounded exact search: refuses n > 10, so the factorial enumeration finishes in milliseconds
func BruteForce(g *graph.PreferenceGraph, maxN int, obj Objective) (*Result, error) {
	if maxN <= 0 {
		maxN = 10
	}
	if !obj.valid() {
		return nil, fmt.Errorf("search: unknown objective %d", obj)
	}
	logw, err := logWeights(g)
	if err != nil {
		return nil, err
	}
	n := g.N()
	if n > maxN {
		return nil, fmt.Errorf("search: BruteForce limited to n <= %d, got n=%d", maxN, n)
	}
	if n == 1 {
		return newResult([]int{0}, 0, 1), nil
	}

	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := make([]int, n)
	copy(best, perm)
	bestLog := scorePath(logw, perm, obj)
	evals := 1

	// Heap's algorithm, iterative form.
	c := make([]int, n)
	i := 0
	for i < n {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			lp := scorePath(logw, perm, obj)
			evals++
			if lp > bestLog {
				bestLog = lp
				copy(best, perm)
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	return newResult(best, bestLog, evals), nil
}
