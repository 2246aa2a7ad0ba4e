package search

import (
	"fmt"

	"crowdrank/internal/graph"
)

// Greedy is the polished floor: the net-score order of the closure (every
// object ranked by sum over j of w_ij - w_ji, the score-ranked construction
// SAPS starts from) refined by InsertionPolish to an insertion local
// optimum, with no randomness and no search beyond that descent.
//
// It is the daemon's floor rung and branch-and-bound's initial incumbent,
// so the two can never disagree. One O(n^2) scoring pass, an O(n log n)
// sort and a bounded number of O(n^2) insertion sweeps keep it well inside
// any deadline the closure itself could be built under. Under the
// all-pairs objective (the Linear Ordering Problem) the insertion
// neighbourhood is strictly larger than SAPS's swap moves, and on the
// pipeline's closures the polished floor scores above an 8-start SAPS run
// at a fraction of its cost. It takes no context: it exists to answer
// after deadlines have already expired.
func Greedy(g *graph.PreferenceGraph, obj Objective) (*Result, error) {
	if !obj.valid() {
		return nil, fmt.Errorf("search: unknown objective %d", obj)
	}
	logw, err := logWeights(g)
	if err != nil {
		return nil, err
	}
	return polishedFloor(g, logw, obj), nil
}

// polishedFloor is Greedy over precomputed log-weights.
func polishedFloor(g *graph.PreferenceGraph, logw [][]float64, obj Objective) *Result {
	return insertionPolish(logw, scoreRankedOrder(g), obj, 0)
}
