package propagate

import (
	"math"
	"math/rand/v2"
	"testing"

	"crowdrank/internal/graph"
)

// enumerateWalkSum computes, by explicit recursion, the sum over all walks
// from src to dst with 2..maxHops hops of the product of edge weights,
// excluding walks that revisit src as an intermediate or pass through dst
// before the end is irrelevant — the implementation counts walks whose
// intermediates may repeat (except the source), so the reference must
// match that definition exactly.
func enumerateWalkSum(g *graph.PreferenceGraph, src, dst, maxHops int) float64 {
	var recurse func(cur int, hops int, product float64) float64
	recurse = func(cur int, hops int, product float64) float64 {
		total := 0.0
		if hops >= 2 && cur == dst {
			total += product
		}
		if hops == maxHops {
			return total
		}
		for _, next := range g.Out(cur) {
			if next == src {
				continue // the implementation never revisits the source
			}
			total += recurse(next, hops+1, product*g.Weight(cur, next))
		}
		return total
	}
	// First hop: leave src once; walks of length >= 2 only.
	total := 0.0
	for _, next := range g.Out(src) {
		if next == src {
			continue
		}
		total += recurse(next, 1, g.Weight(src, next))
	}
	return total
}

// TestWalkSumsMatchEnumeration verifies the matrix-power accumulation in
// walkSums against brute-force walk enumeration on random small graphs.
func TestWalkSumsMatchEnumeration(t *testing.T) {
	rng := rand.New(rand.NewPCG(123, 7))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.IntN(4)
		g, err := graph.NewPreferenceGraph(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < 0.4 {
					continue
				}
				if err := g.SetWeight(i, j, 0.1+0.8*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, hops := range []int{2, 3, 4} {
			indirect, _ := walkSums(g, hops, 0, 1)
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					want := enumerateWalkSum(g, src, dst, hops)
					got := indirect[src][dst]
					if math.Abs(got-want) > 1e-9*(1+want) {
						t.Fatalf("trial %d hops %d (%d->%d): walkSums %v, enumeration %v",
							trial, hops, src, dst, got, want)
					}
				}
			}
		}
	}
}

// TestWalkSumsExcludesDirectEdge verifies that a lone direct edge
// contributes nothing to the indirect sums (indirect evidence means 2+
// hops).
func TestWalkSumsExcludesDirectEdge(t *testing.T) {
	g, err := graph.NewPreferenceGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	indirect, pairs := walkSums(g, 3, 0, 1)
	if indirect[0][1] != 0 || pairs != 0 {
		t.Errorf("lone direct edge leaked into indirect sums: %v (pairs=%d)", indirect[0][1], pairs)
	}
}

// TestWalkSumsPruning verifies that PruneEpsilon only removes
// below-threshold contributions.
func TestWalkSumsPruning(t *testing.T) {
	g, err := graph.NewPreferenceGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	// Chain 0 -> 1 -> 2 with a tiny first hop.
	if err := g.SetWeight(0, 1, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight(1, 2, 0.9); err != nil {
		t.Fatal(err)
	}
	unpruned, _ := walkSums(g, 2, 0, 1)
	if unpruned[0][2] == 0 {
		t.Fatal("unpruned walk should exist")
	}
	pruned, _ := walkSums(g, 2, 1e-3, 1)
	if pruned[0][2] != 0 {
		t.Errorf("pruning should drop the tiny-product walk, got %v", pruned[0][2])
	}
}

// TestWalkSumsParallelMatchesSequential verifies the row-sharded
// computation is bit-identical to the sequential one.
func TestWalkSumsParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 66))
	n := 80
	g, err := graph.NewPreferenceGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() < 0.7 {
				continue
			}
			if err := g.SetWeight(i, j, 0.1+0.8*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	seq, _ := walkSums(g, 3, 0, 1)
	par, _ := walkSums(g, 3, 0, 8)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if seq[i][j] != par[i][j] {
				t.Fatalf("parallel walkSums differ at (%d,%d): %v vs %v", i, j, par[i][j], seq[i][j])
			}
		}
	}
}

// TestClosureParallelismOption exercises the public option end to end.
func TestClosureParallelismOption(t *testing.T) {
	g := buildGraph(t, 5, map[[2]int]float64{
		{0, 1}: 0.9, {1, 0}: 0.1,
		{1, 2}: 0.8, {2, 1}: 0.2,
		{2, 3}: 0.7, {3, 2}: 0.3,
		{3, 4}: 0.9, {4, 3}: 0.1,
	})
	p := DefaultParams()
	seqCl, _, err := Closure(g, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 4
	parCl, _, err := Closure(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if seqCl.Weight(i, j) != parCl.Weight(i, j) {
				t.Fatalf("closure differs at (%d,%d)", i, j)
			}
		}
	}
	bad := DefaultParams()
	bad.Parallelism = -1
	if _, _, err := Closure(g, bad); err == nil {
		t.Error("negative parallelism should fail")
	}
}
