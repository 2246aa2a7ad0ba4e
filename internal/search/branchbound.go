package search

import (
	"context"
	"errors"
	"math"
	"slices"

	"crowdrank/internal/graph"
)

// bbPollSteps is how many pair steps (one candidate extension scored
// against one object) branch-and-bound works between context polls.
// Polling by work rather than by node count keeps the overrun past a
// deadline bounded at any n: a node costs O(n^2) pair steps, so a fixed
// node interval that is cheap at n = 20 overruns a deadline by tens of
// milliseconds at n = 200.
const bbPollSteps = 1 << 16

// ErrWorkCap reports that branch-and-bound spent its MaxSteps unproven.
var ErrWorkCap = errors.New("search: BranchAndBound work cap reached before optimality was proven; instance too hard, use SAPS")

// BranchAndBoundParams tunes the exact all-pairs search.
type BranchAndBoundParams struct {
	// MaxSteps caps the pair steps (the unit of Result.Evaluations) spent;
	// it is checked every bbPollSteps steps, so the search stops within one
	// poll interval past it with ErrWorkCap, the same way on any machine.
	// 0 means math.MaxInt32, about 2^31 steps.
	MaxSteps int
	// Incumbent, if set, is the starting incumbent: a permutation, such as
	// a polished floor the caller already has. nil starts from Greedy's.
	Incumbent []int
}

// BranchAndBound finds the exact optimum of the all-pairs objective
// (weighted linear ordering) by depth-first branch and bound over ranking
// prefixes. Unlike Held-Karp's O(2^n) table it needs only O(n) memory, and
// on the near-consistent tournaments the inference pipeline produces its
// admissible bound prunes aggressively, solving n = 30-50 instances that
// are far out of Held-Karp's reach — an exact reference for validating
// SAPS beyond 20 objects.
//
// The bound: a prefix's score plus, for every not-yet-ordered pair, the
// larger of the two orientations' log-weights — attainable only if all
// remaining pairwise preferences are simultaneously satisfiable, hence an
// upper bound. The incumbent starts at the polished floor (Greedy), or at
// p.Incumbent, so pruning is strong from the first node.
// Result.Evaluations counts the pair steps the DFS spent scoring candidate
// extensions.
//
// Only ObjectiveAllPairs is supported: the consecutive objective lacks a
// comparably tight prefix bound (use HeldKarp for it).
func BranchAndBound(g *graph.PreferenceGraph, p BranchAndBoundParams) (*Result, error) {
	return BranchAndBoundContext(context.Background(), g, p)
}

// BranchAndBoundContext is BranchAndBound with cancellation: the DFS polls
// ctx after every bbPollSteps pair steps of work and abandons the search
// with ctx's error as soon as it is cancelled or its deadline passes. An
// already-cancelled context returns promptly without searching.
//
// It checks p.MaxSteps at the same polls, before ctx, so a context that
// does not expire never changes the outcome. A capped search returns
// ErrWorkCap with a Result holding the unproven incumbent and the steps
// spent; every other error comes with a nil Result.
func BranchAndBoundContext(ctx context.Context, g *graph.PreferenceGraph, p BranchAndBoundParams) (*Result, error) {
	maxSteps := p.MaxSteps
	if maxSteps <= 0 {
		maxSteps = math.MaxInt32
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	logw, err := logWeights(g)
	if err != nil {
		return nil, err
	}
	n := g.N()

	// Incumbent: the caller's, or the polished floor. Either is scored by
	// scorePath, as Greedy scores the floor, so seeding with the floor
	// changes neither the answer nor the work.
	best := slices.Clone(p.Incumbent)
	if best == nil {
		best = polishedFloor(g, logw, ObjectiveAllPairs).Path
	} else if err := checkPermutation(best, n); err != nil {
		return nil, err
	}
	bestScore := scorePath(logw, best, ObjectiveAllPairs)

	// pairGain[i][j] = max(logw[i][j], logw[j][i]): a pair's optimistic mass.
	pairGain := make([][]float64, n)
	for i := range pairGain {
		pairGain[i] = make([]float64, n)
		for j := range pairGain[i] {
			if i != j {
				pairGain[i][j] = math.Max(logw[i][j], logw[j][i])
			}
		}
	}
	// totalOptimistic = sum over unordered pairs of the best orientation.
	totalOptimistic := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			totalOptimistic += pairGain[i][j]
		}
	}

	// Static child ordering: score-ranked, so promising prefixes come first.
	order := scoreRankedOrder(g)

	prefix := make([]int, 0, n)
	used := make([]bool, n)
	steps, nextPoll := 0, bbPollSteps

	// The DFS carries two running quantities:
	//   score    — exact score of all pairs with at least one endpoint
	//              placed (placed-placed pairs exact, placed-unplaced pairs
	//              exact because the placed one precedes every unplaced).
	//   slack    — sum of pairGain over pairs with BOTH endpoints unplaced.
	// Bound = score + slack.
	var dfs func(score, slack float64) error
	dfs = func(score, slack float64) error {
		if len(prefix) == n {
			if score > bestScore {
				bestScore = score
				copy(best, prefix)
			}
			return nil
		}
		for _, v := range order {
			if used[v] {
				continue
			}
			// Appending v removes the optimistic mass of every (v, w) pair
			// with w unplaced from the slack and adds the exact
			// logw[v][w] to the score (v precedes all unplaced w). Pairs
			// (u, v) with u already placed were accounted for exactly when
			// u was appended, by the same rule.
			slackLoss := 0.0
			exactGain := 0.0
			for w := 0; w < n; w++ {
				if used[w] || w == v {
					continue
				}
				slackLoss += pairGain[v][w]
				exactGain += logw[v][w]
			}
			steps += n
			if steps >= nextPoll {
				nextPoll += bbPollSteps
				if steps >= maxSteps {
					return ErrWorkCap
				}
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			newScore := score + exactGain
			newSlack := slack - slackLoss
			if newScore+newSlack <= bestScore+1e-12 {
				continue // prune
			}
			prefix = append(prefix, v)
			used[v] = true
			if err := dfs(newScore, newSlack); err != nil {
				return err
			}
			prefix = prefix[:len(prefix)-1]
			used[v] = false
		}
		return nil
	}

	if err := dfs(0, totalOptimistic); err != nil {
		if errors.Is(err, ErrWorkCap) {
			return newResult(best, bestScore, steps), err
		}
		return nil, err
	}
	return newResult(best, bestScore, steps), nil
}

// Certificate bounds how far a ranking can be from the all-pairs optimum
// without running any search: Gap is the difference between the root
// optimistic bound (every pair at its better orientation) and the ranking's
// own score. The true optimality gap is at most Gap; a Gap of zero proves
// the ranking optimal.
type Certificate struct {
	// Score is the ranking's all-pairs log score.
	Score float64
	// UpperBound is the root bound no ranking can exceed.
	UpperBound float64
	// Gap = UpperBound - Score >= (optimum - Score) >= 0.
	Gap float64
}

// Certify computes the optimality certificate of a ranking under the
// all-pairs objective in O(n^2), with no search. It is useful as a cheap
// post-inference sanity measure: on well-calibrated closures the SAPS
// result's Gap is small relative to |Score|.
//
//lint:ignore ctxloop bounded scoring pass: one O(n^2) sweep over the closure, no search
func Certify(g *graph.PreferenceGraph, path []int) (*Certificate, error) {
	logw, err := logWeights(g)
	if err != nil {
		return nil, err
	}
	n := g.N()
	if err := checkPermutation(path, n); err != nil {
		return nil, err
	}
	score := scorePath(logw, path, ObjectiveAllPairs)
	bound := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			bound += math.Max(logw[i][j], logw[j][i])
		}
	}
	return &Certificate{Score: score, UpperBound: bound, Gap: bound - score}, nil
}
