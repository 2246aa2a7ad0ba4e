// Package smooth implements Step 2 of result inference (Section V-B):
// preference smoothing. Task assignment cannot guarantee a Hamiltonian path
// in the preference graph because unanimous votes create "1-edges" — edges
// of weight exactly 1 whose reverse preference is unknown — and in-/out-
// nodes made of 1-edges are the cause of HP failure (Theorem 4.3).
//
// Smoothing estimates the unknown reverse preference of every 1-edge from
// the error model of the workers who answered that task: worker k's error is
// N(0, sigma_k^2) with sigma_k = -log(q_k), so high-quality workers perturb
// the unanimous edge only slightly. After smoothing, every compared pair
// carries positive weight in both directions, which makes the smoothed graph
// strongly connected whenever the task graph is connected — the property
// Theorem 5.1 needs.
package smooth

import (
	"fmt"
	"math"
	"math/rand/v2"

	"crowdrank/internal/graph"
	"crowdrank/internal/invariant"
	"crowdrank/internal/truth"
)

// Params tunes smoothing. The zero value is not usable; call DefaultParams.
type Params struct {
	// MinDelta is the smallest adjustment applied to a 1-edge. The paper's
	// raw formula can produce a zero adjustment when every answering worker
	// has quality 1 (sigma = -log 1 = 0), which would leave the 1-edge
	// unsmoothed and the graph possibly not strongly connected; the floor
	// guarantees progress. Documented as a deviation in DESIGN.md.
	MinDelta float64
	// MaxDelta caps the adjustment below 1/2 so the smoothed edge keeps its
	// original majority direction (w_ij stays > w_ji).
	MaxDelta float64
}

// DefaultParams returns the smoothing parameters used in the reproduction.
func DefaultParams() Params {
	return Params{MinDelta: 1e-3, MaxDelta: 0.499}
}

func (p Params) validate() error {
	if p.MinDelta <= 0 || p.MinDelta >= 0.5 {
		return fmt.Errorf("smooth: MinDelta %v outside (0, 0.5)", p.MinDelta)
	}
	if p.MaxDelta < p.MinDelta || p.MaxDelta >= 0.5 {
		return fmt.Errorf("smooth: MaxDelta %v outside [MinDelta, 0.5)", p.MaxDelta)
	}
	return nil
}

// Stats reports what smoothing did.
type Stats struct {
	// OneEdges is the number of 1-edges found (Figure 4's discussion links
	// this count to the Step 1 vs Step 2 time split).
	OneEdges int
	// Smoothed is the number of 1-edges adjusted (always equal to OneEdges
	// on valid input).
	Smoothed int
	// MeanDelta is the average adjustment applied.
	MeanDelta float64
}

// Smooth relaxes every 1-edge of the preference graph g in place, as the
// paper's w_ij <- w_ij - delta, w_ji <- w_ji + delta does; on error g may
// be partly smoothed. quality[k] is worker k's estimated quality in (0, 1]
// (from Step 1); votes is the Step 1 vote index, which names the workers
// who answered each pair. rng drives the error draws, one per answering
// worker in vote order, 1-edges taken in (source, target) order, so a
// fixed source makes smoothing reproducible.
func Smooth(g *graph.PreferenceGraph, quality []float64, votes *truth.Index, rng *rand.Rand, p Params) (Stats, error) {
	if err := p.validate(); err != nil {
		return Stats{}, err
	}
	if g == nil {
		return Stats{}, fmt.Errorf("smooth: nil preference graph")
	}
	if votes == nil {
		return Stats{}, fmt.Errorf("smooth: nil vote index")
	}
	if rng == nil {
		return Stats{}, fmt.Errorf("smooth: nil random source")
	}
	// sigma_k = -log(q_k), once per worker rather than once per vote.
	sigma := make([]float64, len(quality))
	for w, q := range quality {
		if q > 0 && q <= 1 {
			sigma[w] = -math.Log(q)
		}
	}

	oneEdges := g.OneEdges()
	var stats Stats
	stats.OneEdges = len(oneEdges)
	var totalDelta float64

	// The voters of every 1-edge, gathered in one pass over the votes; an
	// edge no vote compared gets none.
	ids := make([]int, len(oneEdges))
	for k, e := range oneEdges {
		ids[k] = -1
		if id, ok := votes.PairID(e.I, e.J); ok {
			ids[k] = id
		}
	}
	voters := votes.VotersOf(ids)

	for k, e := range oneEdges {
		delta, err := errorEstimate(voters[k], quality, sigma, rng, p)
		if err != nil {
			return Stats{}, fmt.Errorf("smooth: edge %v: %w", e, err)
		}
		// w_ij <- w_ij - delta, w_ji <- w_ji + delta (Section V-B).
		if err := g.SetWeight(e.I, e.J, 1-delta); err != nil {
			return Stats{}, fmt.Errorf("smooth: edge %v: %w", e, err)
		}
		if err := g.SetWeight(e.J, e.I, delta); err != nil {
			return Stats{}, fmt.Errorf("smooth: reverse of edge %v: %w", e, err)
		}
		stats.Smoothed++
		totalDelta += delta
	}
	if stats.Smoothed > 0 {
		stats.MeanDelta = totalDelta / float64(stats.Smoothed)
	}
	// Stage-boundary assertion (no-op unless built with
	// -tags crowdrank_invariants): no surviving 1-edges, bidirectional
	// pairs, and strong connectivity on connected support (Theorem 5.1).
	invariant.CheckSmoothed(g)
	return stats, nil
}

// errorEstimate computes the smoothing adjustment for one 1-edge: the mean
// of |err_k| over the answering workers, where err_k ~ N(0, sigma_k^2) and
// sigma_k = -log(q_k). The magnitude is clamped into [MinDelta, MaxDelta];
// the absolute value is taken because a signed draw could push a weight
// outside (0, 1), and the clamp keeps the unanimous direction dominant.
func errorEstimate(workers []int32, quality, sigma []float64, rng *rand.Rand, p Params) (float64, error) {
	if len(workers) == 0 {
		// No recorded workers for this edge (possible when the caller
		// smooths a hand-built graph): fall back to the minimum adjustment.
		return p.MinDelta, nil
	}
	var sum float64
	for _, w := range workers {
		if int(w) >= len(quality) {
			return 0, fmt.Errorf("worker %d outside quality table of size %d", w, len(quality))
		}
		if q := quality[w]; q <= 0 || q > 1 {
			return 0, fmt.Errorf("worker %d has quality %v outside (0,1]", w, q)
		}
		sum += math.Abs(rng.NormFloat64() * sigma[w])
	}
	delta := sum / float64(len(workers))
	switch {
	case delta < p.MinDelta:
		delta = p.MinDelta
	case delta > p.MaxDelta:
		delta = p.MaxDelta
	}
	return delta, nil
}
