package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func mustTaskGraph(t *testing.T, n int) *TaskGraph {
	t.Helper()
	g, err := NewTaskGraph(n)
	if err != nil {
		t.Fatalf("NewTaskGraph(%d): %v", n, err)
	}
	return g
}

func TestPairCanon(t *testing.T) {
	if (Pair{I: 3, J: 1}).Canon() != (Pair{I: 1, J: 3}) {
		t.Error("Canon should order endpoints")
	}
	if (Pair{I: 1, J: 3}).Canon() != (Pair{I: 1, J: 3}) {
		t.Error("Canon should keep ordered pairs")
	}
	if !(Pair{I: 0, J: 1}).Valid() {
		t.Error("(0,1) should be valid")
	}
	if (Pair{I: 1, J: 1}).Valid() {
		t.Error("self pair should be invalid")
	}
	if (Pair{I: -1, J: 1}).Valid() {
		t.Error("negative pair should be invalid")
	}
	if (Pair{I: 1, J: 2}).String() == "" {
		t.Error("String should be non-empty")
	}
}

// TestPairSlotBijection checks that Slot maps the canonical pairs of n
// objects one-to-one onto [0, n(n-1)/2), in (I, J) order, and that the
// inverse walk recovers every pair.
func TestPairSlotBijection(t *testing.T) {
	for n := 2; n <= 8; n++ {
		size := n * (n - 1) / 2
		pairAt := make([]Pair, size)
		filled := make([]bool, size)
		want := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				p := Pair{I: i, J: j}
				got := p.Slot(n)
				if got != want {
					t.Fatalf("n=%d: slot of %v = %d, want %d", n, p, got, want)
				}
				if filled[got] {
					t.Fatalf("n=%d: slot %d reused by %v after %v", n, got, p, pairAt[got])
				}
				filled[got], pairAt[got] = true, p
				want++
			}
		}
		if want != size {
			t.Fatalf("n=%d: %d pairs for %d slots", n, want, size)
		}
		for s, p := range pairAt {
			if !filled[s] || p.Slot(n) != s || p.I >= p.J {
				t.Fatalf("n=%d: slot %d maps back to %v", n, s, p)
			}
		}
	}
}

func TestTaskGraphBasics(t *testing.T) {
	if _, err := NewTaskGraph(0); err == nil {
		t.Error("n=0 should fail")
	}
	g := mustTaskGraph(t, 4)
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("fresh graph: N=%d M=%d", g.N(), g.M())
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Error("duplicate edge should fail")
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("reversed duplicate should fail")
	}
	if err := g.AddEdge(2, 2); err == nil {
		t.Error("self loop should fail")
	}
	if err := g.AddEdge(0, 9); err == nil {
		t.Error("out of range should fail")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected edge should exist both ways")
	}
	if g.HasEdge(0, 2) {
		t.Error("absent edge reported")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Error("degree wrong")
	}
	if g.Degree(-1) != 0 || g.Degree(10) != 0 {
		t.Error("out-of-range degree should be 0")
	}
}

func TestTaskGraphRemoveEdge(t *testing.T) {
	g := mustTaskGraph(t, 3)
	if g.RemoveEdge(0, 1) {
		t.Error("removing absent edge should return false")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.RemoveEdge(1, 0) {
		t.Error("removal should succeed via either orientation")
	}
	if g.M() != 0 || g.HasEdge(0, 1) {
		t.Error("edge not fully removed")
	}
	// Re-add must work after removal.
	if err := g.AddEdge(0, 1); err != nil {
		t.Errorf("re-add after removal: %v", err)
	}
}

func TestTaskGraphEdgesSortedAndStable(t *testing.T) {
	g := mustTaskGraph(t, 5)
	for _, e := range [][2]int{{3, 1}, {0, 4}, {2, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	edges := g.Edges()
	want := []Pair{{0, 2}, {0, 4}, {1, 3}}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
}

func TestTaskGraphConnectivityAndPaths(t *testing.T) {
	g := mustTaskGraph(t, 4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.Connected() {
		t.Error("graph with isolated vertex is not connected")
	}
	g.AddEdge(2, 3)
	if !g.Connected() {
		t.Error("path graph should be connected")
	}
	if !g.IsHamiltonianPath([]int{0, 1, 2, 3}) {
		t.Error("0-1-2-3 should be an HP")
	}
	if g.IsHamiltonianPath([]int{0, 1, 2}) {
		t.Error("short path is not an HP")
	}
	if g.IsHamiltonianPath([]int{0, 2, 1, 3}) {
		t.Error("non-adjacent hops should fail")
	}
	if g.IsHamiltonianPath([]int{0, 1, 1, 3}) {
		t.Error("repeated vertex should fail")
	}
	if !g.ContainsPath([]int{1, 2, 3}) {
		t.Error("1-2-3 should be a path")
	}
}

func TestTaskGraphRegularityAndDegrees(t *testing.T) {
	g := mustTaskGraph(t, 4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	if !g.IsRegular() {
		t.Error("cycle should be regular")
	}
	dmin, dmax := g.MinMaxDegree()
	if dmin != 2 || dmax != 2 {
		t.Errorf("cycle degrees: %d..%d", dmin, dmax)
	}
	ds := g.Degrees()
	for i, d := range ds {
		if d != 2 {
			t.Errorf("degree[%d] = %d", i, d)
		}
	}
	g.AddEdge(0, 2)
	if g.IsRegular() {
		t.Error("after chord the graph is irregular")
	}
}

func TestTaskGraphClone(t *testing.T) {
	g := mustTaskGraph(t, 4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.M() != 2 || c.M() != 3 {
		t.Error("clone should be independent")
	}
}

func TestTaskGraphQuickInvariants(t *testing.T) {
	// Adding k random valid edges keeps M consistent with the edge list and
	// degrees summing to 2M.
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%20) + 2
		k := int(kRaw) % (n * (n - 1) / 2)
		rng := rand.New(rand.NewPCG(seed, 3))
		g, err := NewTaskGraph(n)
		if err != nil {
			return false
		}
		added := 0
		for added < k {
			i, j := rng.IntN(n), rng.IntN(n)
			if i == j || g.HasEdge(i, j) {
				continue
			}
			if err := g.AddEdge(i, j); err != nil {
				return false
			}
			added++
		}
		if g.M() != k || len(g.Edges()) != k {
			return false
		}
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == 2*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
