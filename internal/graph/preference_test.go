package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func mustPrefGraph(t *testing.T, n int) *PreferenceGraph {
	t.Helper()
	g, err := NewPreferenceGraph(n)
	if err != nil {
		t.Fatalf("NewPreferenceGraph(%d): %v", n, err)
	}
	return g
}

func setW(t *testing.T, g *PreferenceGraph, i, j int, w float64) {
	t.Helper()
	if err := g.SetWeight(i, j, w); err != nil {
		t.Fatalf("SetWeight(%d,%d,%v): %v", i, j, w, err)
	}
}

func TestPreferenceGraphBasics(t *testing.T) {
	if _, err := NewPreferenceGraph(0); err == nil {
		t.Error("n=0 should fail")
	}
	g := mustPrefGraph(t, 3)
	if g.N() != 3 || g.OutDegree(0)+g.OutDegree(1)+g.OutDegree(2) != 0 {
		t.Fatal("fresh graph wrong")
	}
	setW(t, g, 0, 1, 0.7)
	if g.Weight(0, 1) != 0.7 || g.Weight(1, 0) != 0 {
		t.Error("weight storage is directed")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("edge existence is directed")
	}
	if g.Weight(-1, 0) != 0 || g.Weight(0, 9) != 0 {
		t.Error("out of range weight should be 0")
	}
	if err := g.SetWeight(1, 1, 0.5); err == nil {
		t.Error("self loop should fail")
	}
	if err := g.SetWeight(0, 1, 1.5); err == nil {
		t.Error("weight > 1 should fail")
	}
	if err := g.SetWeight(0, 1, -0.1); err == nil {
		t.Error("negative weight should fail")
	}
	if err := g.SetWeight(0, 9, 0.5); err == nil {
		t.Error("out of range should fail")
	}
}

func TestPreferenceGraphEdgeRemovalViaZero(t *testing.T) {
	g := mustPrefGraph(t, 3)
	setW(t, g, 0, 1, 0.7)
	setW(t, g, 0, 2, 0.4)
	setW(t, g, 0, 1, 0) // the paper: weight 0 means no edge
	if g.HasEdge(0, 1) {
		t.Error("zero weight should remove the edge")
	}
	if g.OutDegree(0) != 1 {
		t.Errorf("OutDegree(0) = %d, want 1", g.OutDegree(0))
	}
	out := g.Out(0)
	if len(out) != 1 || out[0] != 2 {
		t.Errorf("Out(0) = %v", out)
	}
}

func TestInOutNodes(t *testing.T) {
	// Figure 1(b)-like: v2 has only incoming edges.
	g := mustPrefGraph(t, 4)
	setW(t, g, 0, 2, 1)
	setW(t, g, 1, 2, 1)
	setW(t, g, 3, 2, 1)
	setW(t, g, 0, 1, 0.5)
	setW(t, g, 1, 0, 0.5)
	setW(t, g, 3, 0, 1)
	if !g.IsInNode(2) {
		t.Error("v2 should be an in-node")
	}
	if g.IsOutNode(2) || g.IsInNode(0) {
		t.Error("misclassified nodes")
	}
	if !g.IsOutNode(3) {
		t.Error("v3 should be an out-node")
	}
	inN, outN := g.InOutNodes()
	if len(inN) != 1 || inN[0] != 2 || len(outN) != 1 || outN[0] != 3 {
		t.Errorf("InOutNodes = %v, %v", inN, outN)
	}
}

func TestOneEdges(t *testing.T) {
	g := mustPrefGraph(t, 3)
	setW(t, g, 0, 1, 1)
	setW(t, g, 1, 2, 0.8)
	setW(t, g, 2, 1, 0.2)
	ones := g.OneEdges()
	if len(ones) != 1 || ones[0] != (Pair{I: 0, J: 1}) {
		t.Errorf("OneEdges = %v", ones)
	}
}

func TestIsHamiltonianPath(t *testing.T) {
	g := mustPrefGraph(t, 3)
	setW(t, g, 0, 1, 0.5)
	setW(t, g, 1, 2, 0.4)
	if !g.IsHamiltonianPath([]int{0, 1, 2}) {
		t.Error("0-1-2 should be an HP")
	}
	if g.IsHamiltonianPath([]int{2, 1, 0}) {
		t.Error("reverse edges missing, not an HP")
	}
}

func TestIsComplete(t *testing.T) {
	g := mustPrefGraph(t, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				setW(t, g, i, j, 0.5)
			}
		}
	}
	if !g.IsComplete() {
		t.Error("fully weighted graph should be complete")
	}
	setW(t, g, 0, 1, 0)
	if g.IsComplete() {
		t.Error("graph with removed edge is not complete")
	}
}

func TestStronglyConnected(t *testing.T) {
	g := mustPrefGraph(t, 3)
	setW(t, g, 0, 1, 0.5)
	setW(t, g, 1, 2, 0.5)
	if g.StronglyConnected() {
		t.Error("one-way chain is not strongly connected")
	}
	setW(t, g, 2, 0, 0.5)
	if !g.StronglyConnected() {
		t.Error("cycle should be strongly connected")
	}
	comps := g.StronglyConnectedComponents()
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Errorf("SCCs = %v", comps)
	}
}

func TestSCCStructure(t *testing.T) {
	// Two 2-cycles joined by a one-way edge: 2 SCCs.
	g := mustPrefGraph(t, 4)
	setW(t, g, 0, 1, 0.5)
	setW(t, g, 1, 0, 0.5)
	setW(t, g, 2, 3, 0.5)
	setW(t, g, 3, 2, 0.5)
	setW(t, g, 1, 2, 0.5)
	comps := g.StronglyConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("want 2 SCCs, got %v", comps)
	}
	sizes := map[int]bool{len(comps[0]): true, len(comps[1]): true}
	if !sizes[2] || len(comps[0])+len(comps[1]) != 4 {
		t.Errorf("SCC sizes wrong: %v", comps)
	}
}

func TestReachable(t *testing.T) {
	g := mustPrefGraph(t, 4)
	setW(t, g, 0, 1, 0.5)
	setW(t, g, 1, 2, 0.5)
	reach := g.Reachable()
	if !reach[0][1] || !reach[0][2] || reach[0][3] {
		t.Errorf("reach[0] = %v", reach[0])
	}
	if reach[2][0] {
		t.Error("backward reach should be false")
	}
}

func TestHasHamiltonianPathReachability(t *testing.T) {
	// Chain: yes.
	g := mustPrefGraph(t, 3)
	setW(t, g, 0, 1, 0.5)
	setW(t, g, 1, 2, 0.5)
	if !g.HasHamiltonianPathReachability() {
		t.Error("chain closure should have an HP")
	}
	// Two incomparable components: no.
	h := mustPrefGraph(t, 4)
	setW(t, h, 0, 1, 0.5)
	setW(t, h, 2, 3, 0.5)
	if h.HasHamiltonianPathReachability() {
		t.Error("disconnected order should not have an HP")
	}
	// Fork: 0->1, 0->2 with 1,2 incomparable: no.
	f := mustPrefGraph(t, 3)
	setW(t, f, 0, 1, 0.5)
	setW(t, f, 0, 2, 0.5)
	if f.HasHamiltonianPathReachability() {
		t.Error("fork with incomparable leaves should not have an HP")
	}
	// Single vertex: trivially yes.
	s := mustPrefGraph(t, 1)
	if !s.HasHamiltonianPathReachability() {
		t.Error("singleton should have an HP")
	}
}

func TestStronglyConnectedQuickAgainstReachability(t *testing.T) {
	// Property: Tarjan's single-SCC answer matches pairwise reachability.
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%8) + 2
		edges := int(mRaw) % (n * (n - 1))
		rng := rand.New(rand.NewPCG(seed, 17))
		g, err := NewPreferenceGraph(n)
		if err != nil {
			return false
		}
		for e := 0; e < edges; e++ {
			i, j := rng.IntN(n), rng.IntN(n)
			if i == j {
				continue
			}
			if err := g.SetWeight(i, j, 0.5); err != nil {
				return false
			}
		}
		reach := g.Reachable()
		all := true
		for i := 0; i < n && all; i++ {
			for j := 0; j < n; j++ {
				if i != j && !reach[i][j] {
					all = false
					break
				}
			}
		}
		return g.StronglyConnected() == all
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromWeightsMatchesSetWeight(t *testing.T) {
	// Inserting pairs in (i, j) order with SetWeight, both directions per
	// pair, yields the same weights and adjacency order as FromWeights.
	w := [][]float64{
		{0, 0.7, 1, 0},
		{0.3, 0, 0, 0.5},
		{0, 0, 0, 0.2},
		{0, 0.5, 0.8, 0},
	}
	g := mustPrefGraph(t, 4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			setW(t, g, i, j, w[i][j])
			setW(t, g, j, i, w[j][i])
		}
	}
	m := make([][]float64, len(w))
	for i := range w {
		m[i] = slices.Clone(w[i])
	}
	h, err := FromWeights(m)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if !slices.Equal(h.Out(v), g.Out(v)) || !slices.Equal(h.In(v), g.In(v)) {
			t.Errorf("vertex %d: out %v in %v, want %v %v", v, h.Out(v), h.In(v), g.Out(v), g.In(v))
		}
		if !slices.Equal(h.Row(v), g.Row(v)) {
			t.Errorf("row %d = %v, want %v", v, h.Row(v), g.Row(v))
		}
	}
	// Growing one list must not spill into its neighbor's.
	setW(t, h, 0, 3, 0.4)
	if !slices.Equal(h.Out(1), []int{0, 3}) || !slices.Equal(h.Out(0), []int{1, 2, 3}) || !slices.Equal(h.In(3), []int{1, 2, 0}) {
		t.Errorf("after SetWeight: Out(1) = %v, In(3) = %v", h.Out(1), h.In(3))
	}
}

func TestFromWeightsRejectsBadMatrices(t *testing.T) {
	for name, w := range map[string][][]float64{
		"empty":        {},
		"ragged":       {{0, 1}, {0}},
		"self-loop":    {{0.5, 0}, {0, 0}},
		"above one":    {{0, 1.5}, {0, 0}},
		"negative":     {{0, -0.1}, {0, 0}},
		"not a number": {{0, math.NaN()}, {0, 0}},
	} {
		if _, err := FromWeights(w); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}

// eagerAdjacency returns the adjacency lists FromWeights used to build
// up front: every list ascending.
func eagerAdjacency(w [][]float64) (out, in [][]int) {
	out, in = make([][]int, len(w)), make([][]int, len(w))
	for i, row := range w {
		for j, x := range row {
			if x > 0 {
				out[i] = append(out[i], j)
				in[j] = append(in[j], i)
			}
		}
	}
	return out, in
}

// TestLazyAdjacencyMatchesEager checks on random graphs that the lists
// built on first use equal the eager ones, and stay equal through
// SetWeight calls that add and remove edges, whether or not anything read
// the lists before the first SetWeight.
func TestLazyAdjacencyMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 38))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(9)
		w := NewMatrix(n)
		for i := range w {
			for j := range w[i] {
				if i != j && rng.IntN(3) == 0 {
					w[i][j] = rng.Float64()
				}
			}
		}
		wantOut, wantIn := eagerAdjacency(w)
		m := NewMatrix(n)
		for i := range w {
			copy(m[i], w[i])
		}
		g, err := FromWeights(m)
		if err != nil {
			t.Fatal(err)
		}
		if g.out != nil || g.in != nil {
			t.Fatal("FromWeights built adjacency lists before any use")
		}
		readFirst := trial%2 == 0
		check := func(when string) {
			t.Helper()
			for v := 0; v < n; v++ {
				if !slices.Equal(g.Out(v), wantOut[v]) || !slices.Equal(g.In(v), wantIn[v]) {
					t.Fatalf("trial %d %s: vertex %d out %v in %v, want %v %v", trial, when, v, g.Out(v), g.In(v), wantOut[v], wantIn[v])
				}
			}
		}
		if readFirst {
			check("before SetWeight")
		}
		for range 2 * n {
			if n < 2 {
				break
			}
			i, j := rng.IntN(n), rng.IntN(n-1)
			if j >= i {
				j++
			}
			x := 0.0
			if rng.IntN(2) == 0 {
				x = 0.5 + rng.Float64()/2
			}
			// SetWeight appends a new edge and swap-removes a dropped one.
			switch had := w[i][j] > 0; {
			case x > 0 && !had:
				wantOut[i] = append(wantOut[i], j)
				wantIn[j] = append(wantIn[j], i)
			case x == 0 && had:
				wantOut[i] = removeInt(wantOut[i], j)
				wantIn[j] = removeInt(wantIn[j], i)
			}
			w[i][j] = x
			setW(t, g, i, j, x)
		}
		check("after SetWeight")
	}
}

// TestAdjacencyConcurrentReaders has many goroutines read the lists of
// one shared graph at once, as ranks and the build-ahead share a cached
// closure; run under -race it checks the first-use build.
func TestAdjacencyConcurrentReaders(t *testing.T) {
	const n = 40
	w := NewMatrix(n)
	for i := range w {
		for j := range w[i] {
			if i != j {
				w[i][j] = 0.5
			}
		}
	}
	g, err := FromWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 0; v < n; v++ {
				if len(g.Out(v)) != n-1 || len(g.In(v)) != n-1 {
					errs <- fmt.Sprintf("vertex %d: %d out, %d in, want %d each", v, len(g.Out(v)), len(g.In(v)), n-1)
					return
				}
			}
			if !g.StronglyConnected() {
				errs <- "complete graph reads as not strongly connected"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
