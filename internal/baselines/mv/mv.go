// Package mv implements the simple aggregation heuristic the paper's
// introduction contrasts with (majority voting), plus the classical Borda
// and Copeland rules it induces on pairwise data. These serve as sanity baselines and as building blocks for
// the QuickSort baseline's Condorcet graph.
package mv

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"

	"crowdrank/internal/crowd"
	"crowdrank/internal/graph"
)

// PairwiseMajority summarizes the crowd's votes per canonical pair.
type PairwiseMajority struct {
	n int
	// pref[p] is the fraction of votes preferring the lower-indexed object
	// of pair p.
	pref map[graph.Pair]float64
}

// NewPairwiseMajority aggregates votes by plain majority voting: every
// worker counts equally.
func NewPairwiseMajority(n int, votes []crowd.Vote) (*PairwiseMajority, error) {
	if n < 2 {
		return nil, fmt.Errorf("mv: need at least two objects, got n=%d", n)
	}
	if len(votes) == 0 {
		return nil, fmt.Errorf("mv: no votes")
	}
	sums := make(map[graph.Pair]float64)
	counts := make(map[graph.Pair]int)
	for idx, v := range votes {
		if v.I < 0 || v.I >= n || v.J < 0 || v.J >= n || v.I == v.J {
			return nil, fmt.Errorf("mv: vote %d has invalid pair (%d,%d)", idx, v.I, v.J)
		}
		p := v.Pair()
		sums[p] += v.Value()
		counts[p]++
	}
	pref := make(map[graph.Pair]float64, len(sums))
	for p, s := range sums {
		pref[p] = s / float64(counts[p])
	}
	return &PairwiseMajority{n: n, pref: pref}, nil
}

// N returns the number of objects.
func (pm *PairwiseMajority) N() int { return pm.n }

// Preference returns the aggregated probability that i is preferred to j
// and whether the pair was compared at all.
func (pm *PairwiseMajority) Preference(i, j int) (float64, bool) {
	p, ok := pm.pref[graph.Pair{I: i, J: j}.Canon()]
	if !ok {
		return 0.5, false
	}
	if i > j {
		p = 1 - p
	}
	return p, true
}

// CopelandRanking ranks objects by their Copeland score: +1 for every
// pairwise majority win, -1 for every loss (ties and uncompared pairs score
// 0). Equal scores are broken uniformly at random.
func (pm *PairwiseMajority) CopelandRanking(rng *rand.Rand) ([]int, error) {
	if rng == nil {
		return nil, fmt.Errorf("mv: nil random source")
	}
	score := make([]float64, pm.n)
	for p, pref := range pm.pref {
		switch {
		case pref > 0.5:
			score[p.I]++
			score[p.J]--
		case pref < 0.5:
			score[p.I]--
			score[p.J]++
		}
	}
	return rankByScore(score, rng), nil
}

// BordaRanking ranks objects by the sum of their pairwise support: each
// compared pair contributes its preference fraction. Equal scores are
// broken uniformly at random.
func (pm *PairwiseMajority) BordaRanking(rng *rand.Rand) ([]int, error) {
	if rng == nil {
		return nil, fmt.Errorf("mv: nil random source")
	}
	// Sum in canonical pair order, not map order: float addition is not
	// associative, and near-tied scores must break the same way every run.
	pairs := make([]graph.Pair, 0, len(pm.pref))
	for p := range pm.pref {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b graph.Pair) int { return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J)) })
	score := make([]float64, pm.n)
	for _, p := range pairs {
		score[p.I] += pm.pref[p]
		score[p.J] += 1 - pm.pref[p]
	}
	return rankByScore(score, rng), nil
}

// rankByScore orders objects by descending score with random tie-breaking.
func rankByScore(score []float64, rng *rand.Rand) []int {
	order := rng.Perm(len(score)) // random base order breaks ties uniformly
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] > score[order[b]] })
	return order
}
