package search

import (
	"fmt"

	"crowdrank/internal/graph"
)

// InsertionPolish refines a ranking by repeated single-object insertion
// moves — remove one object and reinsert it at the position that maximizes
// the objective — sweeping until no improving insertion exists (a local
// optimum of the classic linear-ordering neighborhood, which is strictly
// larger than SAPS's swap moves for this objective). maxSweeps bounds the
// passes (0 means the default of 16); the result never scores below the
// input.
//
// Under ObjectiveAllPairs an insertion's delta telescopes over the crossed
// positions, so one full sweep costs O(n^2); under ObjectiveConsecutive
// each candidate position is evaluated by its local edge window, keeping a
// sweep at O(n^2) as well.
//
//lint:ignore ctxloop bounded local search: at most maxSweeps O(n^2) sweeps over an already-found path
func InsertionPolish(g *graph.PreferenceGraph, path []int, obj Objective, maxSweeps int) (*Result, error) {
	if !obj.valid() {
		return nil, fmt.Errorf("search: unknown objective %d", obj)
	}
	logw, err := logWeights(g)
	if err != nil {
		return nil, err
	}
	if err := checkPermutation(path, g.N()); err != nil {
		return nil, err
	}
	return insertionPolish(logw, path, obj, maxSweeps), nil
}

// insertionPolish is InsertionPolish over precomputed log-weights and an
// already-validated permutation.
func insertionPolish(logw [][]float64, path []int, obj Objective, maxSweeps int) *Result {
	if maxSweeps <= 0 {
		maxSweeps = 16
	}
	n := len(path)
	cur := append([]int(nil), path...)
	evals := 0

	bestInsertion := func(from int) (int, float64) {
		bestTo, bestDelta := from, 0.0
		if obj == ObjectiveAllPairs {
			// Walking the object left or right crosses one element per
			// step; the deltas telescope.
			x := cur[from]
			delta := 0.0
			for to := from - 1; to >= 0; to-- {
				y := cur[to]
				delta += logw[x][y] - logw[y][x] // (y before x) flips to (x before y)
				evals++
				if delta > bestDelta+1e-15 {
					bestDelta, bestTo = delta, to
				}
			}
			delta = 0.0
			for to := from + 1; to < n; to++ {
				y := cur[to]
				delta += logw[y][x] - logw[x][y] // (x before y) flips to (y before x)
				evals++
				if delta > bestDelta+1e-15 {
					bestDelta, bestTo = delta, to
				}
			}
			return bestTo, bestDelta
		}
		for to := 0; to < n; to++ {
			if to == from {
				continue
			}
			delta := consecutiveInsertionDelta(logw, cur, from, to)
			evals++
			if delta > bestDelta+1e-15 {
				bestDelta, bestTo = delta, to
			}
		}
		return bestTo, bestDelta
	}

	for sweep := 0; sweep < maxSweeps; sweep++ {
		improved := false
		for from := 0; from < n; from++ {
			if to, delta := bestInsertion(from); to != from && delta > 0 {
				moveElement(cur, from, to)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return newResult(cur, scorePath(logw, cur, obj), evals)
}

// consecutiveInsertionDelta computes the exact consecutive-objective change
// of moving path[from] to position `to` by re-scoring the affected edge
// window. Insertion deltas do not telescope under the consecutive
// objective, so the window (|from-to|+2 edges) is evaluated directly.
func consecutiveInsertionDelta(logw [][]float64, path []int, from, to int) float64 {
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	winLo, winHi := lo-1, hi+1
	if winLo < 0 {
		winLo = 0
	}
	if winHi > len(path)-1 {
		winHi = len(path) - 1
	}
	before := 0.0
	for k := winLo; k < winHi; k++ {
		before += logw[path[k]][path[k+1]]
	}
	scratch := append([]int(nil), path[winLo:winHi+1]...)
	moveElement(scratch, from-winLo, to-winLo)
	after := 0.0
	for k := 0; k+1 < len(scratch); k++ {
		after += logw[scratch[k]][scratch[k+1]]
	}
	return after - before
}

// moveElement moves s[from] to position to, shifting the range between.
func moveElement(s []int, from, to int) {
	if from == to {
		return
	}
	v := s[from]
	if from < to {
		copy(s[from:to], s[from+1:to+1])
	} else {
		copy(s[to+1:from+1], s[to:from])
	}
	s[to] = v
}
