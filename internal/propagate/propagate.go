// Package propagate implements Step 3 of result inference (Section V-C):
// computing indirect pairwise preferences by transitivity and blending them
// with the direct preferences into the transitive closure G_P^*.
//
// For a path P(v_i, ..., v_j) the inferred weight is the product of the edge
// weights along P; multiple paths between the same endpoints are summed with
// equal importance. Enumerating all simple paths of length up to n-1 is
// exponential, so this implementation accumulates bounded-hop walk products
// (matrix powers of the weight matrix) up to MaxHops hops: because every
// weight lies in (0, 1), longer chains contribute geometrically less, and
// the dominant transitive evidence lives in the short chains. MaxHops is an
// option and an ablation benchmark covers its effect.
//
// The final preference is w̌_ij = alpha*w_ij + (1-alpha)*w*_ij, followed by
// the pairwise normalization w_ij <- w_ij / (w_ij + w_ji) so that
// w_ij + w_ji = 1 (the probability constraint of Ailon et al.). The result
// is a complete weighted tournament, so it always admits a Hamiltonian path
// (Theorem 5.1).
package propagate

import (
	"fmt"
	"sync"

	"crowdrank/internal/graph"
	"crowdrank/internal/invariant"
)

// Params tunes propagation. The zero value is not usable; call
// DefaultParams.
type Params struct {
	// Alpha weighs direct versus indirect preference in the blend
	// w̌ = alpha*direct + (1-alpha)*indirect. The paper leaves it
	// user-specified; 0.5 is the neutral default.
	Alpha float64
	// MaxHops bounds the transitive chains considered (2..MaxHops hops).
	// MaxHops = 1 disables propagation (direct preferences only).
	MaxHops int
	// PruneEpsilon drops walk products below this magnitude during
	// accumulation; 0 keeps everything.
	PruneEpsilon float64
	// PriorStrength shrinks each pair's indirect ratio toward 1/2 in
	// proportion to how little walk evidence supports it: the ratio is
	// damped by total/(total + PriorStrength*meanTotal), where total is the
	// pair's two-directional walk mass and meanTotal the average over
	// informed pairs. Without shrinkage, a pair supported by one or two
	// noisy walks can receive an extreme weight, and the Step 4 product
	// objective chains such "wormhole" edges into high-probability but
	// wrong rankings. 0 disables shrinkage.
	PriorStrength float64
	// WeightFloor keeps every normalized weight inside
	// [WeightFloor, 1-WeightFloor] so the closure is strictly complete and
	// log-weights stay finite for Step 4's search.
	WeightFloor float64
	// Parallelism shards the walk-sum accumulation (each source row is
	// independent) into this many contiguous row ranges, one per goroutine,
	// the caller included. The result is identical to the sequential
	// computation — rows never share accumulators. 0 or 1 means sequential.
	Parallelism int
}

// DefaultParams returns the propagation parameters used in the reproduction.
func DefaultParams() Params {
	return Params{
		Alpha:         0.5,
		MaxHops:       3,
		PruneEpsilon:  0,
		PriorStrength: 1.0,
		WeightFloor:   1e-4,
	}
}

func (p Params) validate() error {
	if p.Alpha < 0 || p.Alpha > 1 {
		return fmt.Errorf("propagate: alpha %v outside [0,1]", p.Alpha)
	}
	if p.MaxHops < 1 {
		return fmt.Errorf("propagate: MaxHops must be >= 1, got %d", p.MaxHops)
	}
	if p.PruneEpsilon < 0 {
		return fmt.Errorf("propagate: negative PruneEpsilon %v", p.PruneEpsilon)
	}
	if p.PriorStrength < 0 {
		return fmt.Errorf("propagate: negative PriorStrength %v", p.PriorStrength)
	}
	if p.WeightFloor <= 0 || p.WeightFloor >= 0.5 {
		return fmt.Errorf("propagate: WeightFloor %v outside (0, 0.5)", p.WeightFloor)
	}
	if p.Parallelism < 0 {
		return fmt.Errorf("propagate: negative Parallelism %d", p.Parallelism)
	}
	return nil
}

// Stats reports propagation diagnostics.
type Stats struct {
	// IndirectPairs counts ordered pairs that received indirect evidence.
	IndirectPairs int
	// UninformedPairs counts unordered pairs with no direct or indirect
	// evidence in either direction, which fall back to 0.5/0.5.
	UninformedPairs int
	// HopsUsed echoes the effective hop bound.
	HopsUsed int
}

// Closure computes the normalized transitive closure G_P^* of the smoothed
// preference graph g. The returned graph is complete: every ordered pair
// (i, j), i != j, has weight in [WeightFloor, 1-WeightFloor] and
// w_ij + w_ji = 1.
func Closure(g *graph.PreferenceGraph, p Params) (*graph.PreferenceGraph, Stats, error) {
	if err := p.validate(); err != nil {
		return nil, Stats{}, err
	}
	if g == nil {
		return nil, Stats{}, fmt.Errorf("propagate: nil preference graph")
	}
	n := g.N()
	hops := p.MaxHops
	if hops > n-1 {
		hops = n - 1
	}
	if hops < 1 {
		hops = 1
	}
	indirect, indirectPairs := walkSums(g, hops, p.PruneEpsilon, p.Parallelism)

	var stats Stats
	stats.IndirectPairs = indirectPairs
	stats.HopsUsed = hops

	// Mean two-directional walk mass over informed pairs, the reference
	// scale for PriorStrength shrinkage.
	meanMass := 0.0
	informed := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mass := indirect[i][j] + indirect[j][i]
			if mass > 0 {
				meanMass += mass
				informed++
			}
		}
	}
	if informed > 0 {
		meanMass /= float64(informed)
	}

	// The blend reads both directions of a pair before writing them, so
	// it overwrites the walk sums in place: the matrix is this build's own
	// and becomes the closure's.
	weights := indirect
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Direct and indirect evidence live on different scales: direct
			// weights are probabilities (w_ij + w_ji = 1 after smoothing)
			// while walk sums grow with the number of contributing paths.
			// Normalize each source per pair before blending so alpha
			// keeps its meaning; the paper's final normalization
			// w_ij / (w_ij + w_ji) makes the two formulations agree up to
			// this per-source scaling. See DESIGN.md.
			dij, dji := g.Row(i)[j], g.Row(j)[i]
			dTotal := dij + dji
			iTotal := indirect[i][j] + indirect[j][i]
			var indRatio float64
			if iTotal > 0 {
				indRatio = indirect[i][j] / iTotal
				if p.PriorStrength > 0 && meanMass > 0 {
					conf := iTotal / (iTotal + p.PriorStrength*meanMass)
					indRatio = 0.5 + conf*(indRatio-0.5)
				}
			}
			var wij float64
			switch {
			case dTotal > 0 && iTotal > 0:
				wij = p.Alpha*dij/dTotal + (1-p.Alpha)*indRatio
			case dTotal > 0:
				wij = dij / dTotal
			case iTotal > 0:
				wij = indRatio
			default:
				stats.UninformedPairs++
				wij = 0.5
			}
			wij = clampWeight(wij, p.WeightFloor)
			weights[i][j], weights[j][i] = wij, 1-wij
		}
	}
	closure, err := graph.FromWeights(weights)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("propagate: %w", err)
	}
	// Stage-boundary assertion (no-op unless built with
	// -tags crowdrank_invariants): the closure is a complete tournament
	// with w_ij + w_ji = 1, the state Theorem 5.1 relies on.
	invariant.CheckTournament(closure)
	return closure, stats, nil
}

func clampWeight(w, floor float64) float64 {
	switch {
	case w < floor:
		return floor
	case w > 1-floor:
		return 1 - floor
	default:
		return w
	}
}

// walkSums accumulates, for every ordered pair (i, j), the sum over
// 2..hops-hop walks of the product of edge weights: indirect[i][j] =
// sum_{h=2..hops} (W^h)_ij, with diagonal contributions discarded at every
// step so cycles through the source do not feed back. Row i of W^h needs
// only row i of W^(h-1), so each source row runs all its hops on two
// scratch rows, walking g's out-edges in compressed sparse row form and
// skipping zero entries. Each row[j] sums its k terms in ascending k, so
// the result does not depend on the order of g's adjacency lists.
func walkSums(g *graph.PreferenceGraph, hops int, prune float64, parallelism int) ([][]float64, int) {
	n := g.N()
	indirect := graph.NewMatrix(n)
	if hops < 2 {
		return indirect, 0
	}
	adj := newCSR(g)

	// walkRow fills indirect[i]; a and b are the caller's scratch rows.
	walkRow := func(i int, a, b []float64) {
		cur, next := g.Row(i), a
		ind := indirect[i]
		for h := 2; h <= hops; h++ {
			clear(next)
			for k, w := range cur {
				if w <= prune || k == i {
					continue
				}
				vals := adj.vals[adj.start[k]:adj.start[k+1]]
				for t, j := range adj.cols[adj.start[k]:adj.start[k+1]] {
					next[j] += w * vals[t]
				}
			}
			next[i] = 0 // walks that return to the source are discarded
			for j, x := range next {
				ind[j] += x
			}
			if h == 2 {
				cur, next = next, b
			} else {
				cur, next = next, cur
			}
		}
	}

	// Source rows are independent of each other, so they shard across
	// goroutines with identical results. Each worker takes one static,
	// contiguous shard and the caller walks the last one itself: handing
	// rows out one by one over a channel ran the workers one after another,
	// since each receive is scheduled on the sending goroutine's P.
	workers := 1
	if parallelism > 1 && n >= 64 {
		workers = min(parallelism, n)
	}
	walkShard := func(w int) {
		a, b := make([]float64, n), make([]float64, n)
		for i := w * n / workers; i < (w+1)*n/workers; i++ {
			walkRow(i, a, b)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 0; w < workers-1; w++ {
		go func() {
			defer wg.Done()
			walkShard(w)
		}()
	}
	walkShard(workers - 1)
	wg.Wait()

	pairs := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && indirect[i][j] > 0 {
				pairs++
			}
		}
	}
	return indirect, pairs
}

// csr holds a graph's out-edges in compressed sparse row form: vertex k's
// targets are cols[start[k]:start[k+1]], with weights at the same offsets
// of vals.
type csr struct {
	start []int
	cols  []int
	vals  []float64
}

func newCSR(g *graph.PreferenceGraph) csr {
	n := g.N()
	adj := csr{start: make([]int, n+1)}
	for k := 0; k < n; k++ {
		adj.start[k+1] = adj.start[k] + len(g.Out(k))
	}
	adj.cols = make([]int, 0, adj.start[n])
	adj.vals = make([]float64, 0, adj.start[n])
	for k := 0; k < n; k++ {
		row := g.Row(k)
		for _, j := range g.Out(k) {
			adj.cols = append(adj.cols, j)
			adj.vals = append(adj.vals, row[j])
		}
	}
	return adj
}
