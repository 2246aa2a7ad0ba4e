// Package taskgen implements the paper's task assignment stage (Section IV):
// generating a budget-constrained task graph G_T that is fair (Theorem 4.1:
// every vertex has the same degree, so every object has probability 2/3^d of
// being an in-/out-node) and of high HP-likelihood (Theorem 4.4: the lower
// bound Pr_l on the transitive closure admitting a Hamiltonian path is
// maximized when d_min = d_max = 2l/n).
//
// Algorithm 1 of the paper seeds the graph with a random Hamiltonian path
// and then tops every vertex up to the target degree. The paper's pseudocode
// leaves the dead-end cases open (the last vertices needing degree may
// already be adjacent); this implementation resolves them with a
// configuration-model stub pairing followed by edge-swap repair, falling
// back to greedy fill, so the output always has exactly l edges.
package taskgen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"crowdrank/internal/graph"
	"crowdrank/internal/invariant"
)

// Plan describes a generated task assignment.
type Plan struct {
	// Graph is the task graph G_T with exactly L edges.
	Graph *graph.TaskGraph
	// SeedPath is the Hamiltonian path used to seed the graph (a random
	// permutation of the objects); G_T is guaranteed to contain it.
	SeedPath []int
	// L is the number of pairwise comparison tasks (edges).
	L int
	// TargetDegree is 2L/N rounded down; vertices have degree TargetDegree
	// or TargetDegree+1 when 2L is not divisible by N.
	TargetDegree int
}

// Pairs returns the comparison tasks as canonical (i < j) pairs.
func (p *Plan) Pairs() []graph.Pair { return p.Graph.Edges() }

// MaxPairs returns C(n, 2), the number of distinct comparisons of n objects.
func MaxPairs(n int) int {
	if n < 2 {
		return 0
	}
	return n * (n - 1) / 2
}

// PairsForRatio returns l = round(r * C(n,2)) clamped to [n-1, C(n,2)]: the
// experiment sections express budgets as a selection ratio r of all pairs.
func PairsForRatio(n int, ratio float64) (int, error) {
	if n < 2 {
		return 0, fmt.Errorf("taskgen: need at least two objects, got n=%d", n)
	}
	if ratio <= 0 || ratio > 1 {
		return 0, fmt.Errorf("taskgen: selection ratio %v outside (0,1]", ratio)
	}
	l := int(math.Round(ratio * float64(MaxPairs(n))))
	if l < n-1 {
		l = n - 1
	}
	if max := MaxPairs(n); l > max {
		l = max
	}
	return l, nil
}

// InOutProbability returns Prob(v^IO) = 2/3^d (Equation 2): the probability
// that a vertex of degree d is an in-node or out-node across the 3^l
// possible preference-graph instances of the task graph.
func InOutProbability(degree int) float64 {
	if degree < 0 {
		return 0
	}
	return 2 / math.Pow(3, float64(degree))
}

// HPLikelihoodLowerBound returns Pr_l of Theorem 4.4: a lower bound on the
// probability that the transitive closure of any preference graph built from
// a task graph with n vertices and degree range [dmin, dmax] contains no
// more than one in-node/out-node (a necessary condition for an HP).
func HPLikelihoodLowerBound(n, dmin, dmax int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("taskgen: n must be positive, got %d", n)
	}
	if dmin < 0 || dmax < dmin {
		return 0, fmt.Errorf("taskgen: invalid degree range [%d, %d]", dmin, dmax)
	}
	pow := math.Pow(3, float64(dmax))
	if pow <= 2 { // dmax = 0: the bound's denominators vanish
		return 0, nil
	}
	nf := float64(n)
	base := math.Pow(1-2/math.Pow(3, float64(dmin)), nf)
	denom := pow - 2
	bracket := 1 + 2*nf/denom + nf*(nf-1)/(2*denom*denom)
	bound := base * bracket
	if bound < 0 {
		bound = 0
	}
	if bound > 1 {
		bound = 1
	}
	return bound, nil
}

// Generate builds a fair, high-HP-likelihood task graph with exactly l edges
// over n objects (Algorithm 1). It requires n-1 <= l <= C(n,2): fewer edges
// cannot contain a Hamiltonian path (Theorem 4.2) and more cannot be
// distinct comparisons. rng drives all random choices, so a fixed source
// yields a reproducible plan.
func Generate(n, l int, rng *rand.Rand) (*Plan, error) {
	if rng == nil {
		return nil, fmt.Errorf("taskgen: nil random source")
	}
	if n < 2 {
		return nil, fmt.Errorf("taskgen: need at least two objects, got n=%d", n)
	}
	if l < n-1 {
		return nil, fmt.Errorf("taskgen: l=%d cannot contain a Hamiltonian path over n=%d objects (need l >= %d)", l, n, n-1)
	}
	if max := MaxPairs(n); l > max {
		return nil, fmt.Errorf("taskgen: l=%d exceeds the %d distinct pairs of n=%d objects", l, max, n)
	}

	g, err := graph.NewTaskGraph(n)
	if err != nil {
		return nil, fmt.Errorf("taskgen: %w", err)
	}

	// Line 4 of Algorithm 1: a random path connecting all vertices.
	path := rng.Perm(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(path[i-1], path[i]); err != nil {
			return nil, fmt.Errorf("taskgen: seeding HP: %w", err)
		}
	}

	extra := l - (n - 1)
	if extra > 0 {
		if err := addRegularEdges(g, extra, rng); err != nil {
			return nil, fmt.Errorf("taskgen: %w", err)
		}
	}
	if g.M() != l {
		return nil, fmt.Errorf("taskgen: internal error: built %d edges, wanted %d", g.M(), l)
	}
	// Stage-boundary assertion (no-op unless built with
	// -tags crowdrank_invariants): connectivity, edge budget, and the
	// Theorem 4.1 near-regular degree sequence.
	invariant.CheckTaskGraph(g, l)
	return &Plan{
		Graph:        g,
		SeedPath:     path,
		L:            l,
		TargetDegree: 2 * l / n,
	}, nil
}

// addRegularEdges adds extra edges so the final degree sequence is as flat
// as possible: every vertex ends at floor(2l/n) or ceil(2l/n). It first
// attempts a configuration-model stub pairing with edge-swap repair, then
// greedily fills any remainder.
func addRegularEdges(g *graph.TaskGraph, extra int, rng *rand.Rand) error {
	n := g.N()
	l := g.M() + extra
	base := 2 * l / n
	overflow := 2*l - base*n // this many vertices get degree base+1

	// Residual degree demand per vertex given the HP already in place.
	target := make([]int, n)
	for i := range target {
		target[i] = base
	}
	// Give the +1 allowance preferentially to vertices that already exceed
	// base (HP interior vertices when base is small), then randomly.
	order := rng.Perm(n)
	granted := 0
	for _, v := range order {
		if granted < overflow && g.Degree(v) > base {
			target[v]++
			granted++
		}
	}
	for _, v := range order {
		if granted == overflow {
			break
		}
		if target[v] == base && g.Degree(v) <= base {
			target[v]++
			granted++
		}
	}

	added := pairStubs(g, target, extra, rng)
	if added < extra {
		if err := greedyFill(g, extra-added, rng); err != nil {
			return err
		}
	}
	return nil
}

type stubEdge struct{ u, v int }

// pairStubs performs configuration-model pairing: each vertex contributes
// (target - degree) stubs, the stubs are shuffled and paired, and invalid
// pairs (self-loops, duplicate edges) are resolved by a degree-preserving
// double-edge swap against a random previously accepted pair. Returns the
// number of edges added (at most budget).
func pairStubs(g *graph.TaskGraph, target []int, budget int, rng *rand.Rand) int {
	var stubs []int
	for v := range target {
		for d := g.Degree(v); d < target[v]; d++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	var pending []stubEdge
	for i := 0; i+1 < len(stubs) && len(pending) < budget; i += 2 {
		pending = append(pending, stubEdge{u: stubs[i], v: stubs[i+1]})
	}

	const swapAttempts = 64
	var accepted []stubEdge
	for _, e := range pending {
		if e.u != e.v && !g.HasEdge(e.u, e.v) {
			if err := g.AddEdge(e.u, e.v); err == nil {
				accepted = append(accepted, e)
			}
			continue
		}
		// Repair by double-edge swap: remove an accepted edge (x, y) and
		// add (e.u, x) and (e.v, y) — or the crossed variant — which keeps
		// every vertex's degree unchanged while realizing both stubs.
		for attempt := 0; attempt < swapAttempts && len(accepted) > 0; attempt++ {
			k := rng.IntN(len(accepted))
			other := accepted[k]
			if a, b, ok := swapCandidate(g, e, other); ok {
				g.RemoveEdge(other.u, other.v)
				mustAdd(g, e.u, a)
				mustAdd(g, e.v, b)
				accepted[k] = stubEdge{u: e.u, v: a}
				accepted = append(accepted, stubEdge{u: e.v, v: b})
				break
			}
		}
	}
	return len(accepted)
}

// swapCandidate reports whether removing accepted edge `other` and adding
// (e.u, a), (e.v, b) is valid for some assignment {a, b} = {other.u,
// other.v}; validity means no self-loops, no duplicates of surviving edges,
// and the two new edges distinct from each other.
func swapCandidate(g *graph.TaskGraph, e, other stubEdge) (a, b int, ok bool) {
	for _, cand := range [2][2]int{{other.u, other.v}, {other.v, other.u}} {
		a, b = cand[0], cand[1]
		if e.u == a || e.v == b {
			continue
		}
		if sameEdge(e.u, a, e.v, b) {
			continue
		}
		// The old edge (other.u, other.v) is about to be removed, so a new
		// edge equal to it is fine; any other duplicate is not.
		dupU := g.HasEdge(e.u, a) && !sameEdge(e.u, a, other.u, other.v)
		dupV := g.HasEdge(e.v, b) && !sameEdge(e.v, b, other.u, other.v)
		if dupU || dupV {
			continue
		}
		// Exactly one of the new edges may coincide with the removed edge.
		if sameEdge(e.u, a, other.u, other.v) && sameEdge(e.v, b, other.u, other.v) {
			continue
		}
		return a, b, true
	}
	return 0, 0, false
}

func mustAdd(g *graph.TaskGraph, i, j int) {
	if err := g.AddEdge(i, j); err != nil {
		panic("taskgen: invariant violation adding checked edge: " + err.Error())
	}
}

func sameEdge(a1, b1, a2, b2 int) bool {
	return (a1 == a2 && b1 == b2) || (a1 == b2 && b1 == a2)
}

// greedyFill adds `need` more edges, preferring endpoints with the smallest
// current degree so the degree spread stays minimal.
func greedyFill(g *graph.TaskGraph, need int, rng *rand.Rand) error {
	n := g.N()
	for added := 0; added < need; added++ {
		// Collect vertices ordered by degree with random tie-breaking.
		order := rng.Perm(n)
		found := false
		// Try endpoints in increasing degree order: O(n^2) worst case per
		// edge but the loop nearly always exits immediately.
		bestPairs := order
		for _, du := range degreeSorted(g, bestPairs) {
			u := du
			for _, v := range degreeSorted(g, order) {
				if u == v || g.HasEdge(u, v) {
					continue
				}
				if err := g.AddEdge(u, v); err != nil {
					return err
				}
				found = true
				break
			}
			if found {
				break
			}
		}
		if !found {
			return fmt.Errorf("taskgen: graph saturated after %d of %d fill edges", added, need)
		}
	}
	return nil
}

// degreeSorted returns the vertices of order sorted by ascending degree,
// stable with respect to the (random) input order.
func degreeSorted(g *graph.TaskGraph, order []int) []int {
	out := make([]int, len(order))
	copy(out, order)
	// Insertion sort by degree: n is small relative to cost elsewhere, and
	// stability preserves the random tie-break from order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && g.Degree(out[j]) < g.Degree(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
