package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"crowdrank/internal/feq"
)

// PreferenceGraph is the weighted, directed preference graph G_P of Section
// III. The weight w_ij in (0, 1] is the truth confidence that O_i is
// preferred to O_j. A weight of zero means the edge does not exist, matching
// the paper's convention ("when w_ij = 0, there is no edge").
//
// The representation is a dense matrix plus adjacency lists: inference needs
// O(1) weight lookups while propagation iterates outgoing edges, and the
// paper's scale (n <= a few thousand) keeps the matrix comfortably in memory.
// The lists are built from the matrix on the first call that needs them
// (Out, In, SetWeight, OneEdges, the connectivity checks), so a graph only
// read through Weight and Row, like a cached closure, never holds them.
// Concurrent readers are safe; SetWeight is not safe alongside anything.
type PreferenceGraph struct {
	n     int
	w     [][]float64
	lists sync.Once
	out   [][]int // out[i] = list of j with w[i][j] > 0, in insertion order
	in    [][]int // in[j] = list of i with w[i][j] > 0
}

// NewPreferenceGraph creates an edgeless preference graph over n vertices.
func NewPreferenceGraph(n int) (*PreferenceGraph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: preference graph needs at least one vertex, got n=%d", n)
	}
	return &PreferenceGraph{n: n, w: NewMatrix(n)}, nil
}

// NewMatrix returns a zeroed n x n matrix whose rows share one backing
// array.
func NewMatrix(n int) [][]float64 {
	rows := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range rows {
		rows[i], backing = backing[:n:n], backing[n:]
	}
	return rows
}

// FromWeights assembles a preference graph from a dense n x n weight
// matrix, taking ownership of w. Its adjacency lists, built on first use,
// come out ascending — the order SetWeight produces when edges are
// inserted pair by pair in (i, j) order. The diagonal must be zero and
// every weight in [0, 1].
func FromWeights(w [][]float64) (*PreferenceGraph, error) {
	n := len(w)
	if n < 1 {
		return nil, fmt.Errorf("graph: preference graph needs at least one vertex, got n=%d", n)
	}
	for i, row := range w {
		if len(row) != n {
			return nil, fmt.Errorf("graph: weight row %d has %d entries, want %d", i, len(row), n)
		}
		for j, x := range row {
			if x < 0 || x > 1 || math.IsNaN(x) {
				return nil, fmt.Errorf("graph: weight %v for edge (%d,%d) outside [0,1]", x, i, j)
			}
			if x > 0 && i == j {
				return nil, fmt.Errorf("graph: self-loop (%d,%d) is not a valid preference", i, j)
			}
		}
	}
	return &PreferenceGraph{n: n, w: w}, nil
}

// adjacency returns the adjacency lists, building them on the first call.
func (g *PreferenceGraph) adjacency() (out, in [][]int) {
	g.lists.Do(g.buildLists)
	return g.out, g.in
}

// buildLists builds ascending adjacency lists from the matrix in one pass,
// without growing lists one edge at a time.
func (g *PreferenceGraph) buildLists() {
	n := g.n
	inDeg := make([]int, n)
	edges := 0
	for _, row := range g.w {
		for j, x := range row {
			if x > 0 {
				inDeg[j]++
				edges++
			}
		}
	}
	// One backing array per direction; capped sub-slices keep a later
	// SetWeight append from spilling into the next vertex's list.
	outBacking := make([]int, 0, edges)
	inBacking := make([]int, edges)
	inEnd := make([]int, n) // next free offset of each in-list
	for j := 1; j < n; j++ {
		inEnd[j] = inEnd[j-1] + inDeg[j-1]
	}
	g.out, g.in = make([][]int, n), make([][]int, n)
	for i, row := range g.w {
		start := len(outBacking)
		for j, x := range row {
			if x > 0 {
				outBacking = append(outBacking, j)
				inBacking[inEnd[j]] = i
				inEnd[j]++
			}
		}
		g.out[i] = outBacking[start:len(outBacking):len(outBacking)]
	}
	for j := range g.in {
		g.in[j] = inBacking[inEnd[j]-inDeg[j] : inEnd[j] : inEnd[j]]
	}
}

// N returns the number of vertices.
func (g *PreferenceGraph) N() int { return g.n }

// Weight returns w_ij, or 0 when the edge i->j does not exist.
func (g *PreferenceGraph) Weight(i, j int) float64 {
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		return 0
	}
	return g.w[i][j]
}

// Row returns the weights w_i· of i's out-edges, indexed by target (0
// where there is no edge). The slice is shared with internal state;
// callers must not modify it.
func (g *PreferenceGraph) Row(i int) []float64 {
	if i < 0 || i >= g.n {
		return nil
	}
	return g.w[i]
}

// HasEdge reports whether the directed edge i->j exists (w_ij > 0).
func (g *PreferenceGraph) HasEdge(i, j int) bool { return g.Weight(i, j) > 0 }

// SetWeight sets w_ij. Weights must lie in [0, 1]; setting 0 removes the
// edge. Self-loops are rejected.
func (g *PreferenceGraph) SetWeight(i, j int, weight float64) error {
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", i, j, g.n)
	}
	if i == j {
		return fmt.Errorf("graph: self-loop (%d,%d) is not a valid preference", i, j)
	}
	if weight < 0 || weight > 1 || math.IsNaN(weight) {
		return fmt.Errorf("graph: weight %v for edge (%d,%d) outside [0,1]", weight, i, j)
	}
	out, in := g.adjacency()
	had := g.w[i][j] > 0
	g.w[i][j] = weight
	has := weight > 0
	switch {
	case has && !had:
		out[i] = append(out[i], j)
		in[j] = append(in[j], i)
	case !has && had:
		out[i] = removeInt(out[i], j)
		in[j] = removeInt(in[j], i)
	}
	return nil
}

func removeInt(s []int, v int) []int {
	for idx, x := range s {
		if x == v {
			s[idx] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// Out returns the out-neighbors of i (vertices j with w_ij > 0). The slice
// is shared with internal state; callers must not modify it.
func (g *PreferenceGraph) Out(i int) []int {
	if i < 0 || i >= g.n {
		return nil
	}
	out, _ := g.adjacency()
	return out[i]
}

// In returns the in-neighbors of j. The slice is shared with internal state;
// callers must not modify it.
func (g *PreferenceGraph) In(j int) []int {
	if j < 0 || j >= g.n {
		return nil
	}
	_, in := g.adjacency()
	return in[j]
}

// OutDegree and InDegree report edge counts per vertex.
func (g *PreferenceGraph) OutDegree(i int) int { return len(g.Out(i)) }

// InDegree returns the number of incoming edges of j.
func (g *PreferenceGraph) InDegree(j int) int { return len(g.In(j)) }

// IsInNode reports whether v has only incoming edges (Section III). In-nodes
// force their object to rank last, so Theorem 4.3 makes two of them fatal
// for a full ranking.
func (g *PreferenceGraph) IsInNode(v int) bool {
	return g.InDegree(v) > 0 && g.OutDegree(v) == 0
}

// IsOutNode reports whether v has only outgoing edges.
func (g *PreferenceGraph) IsOutNode(v int) bool {
	return g.OutDegree(v) > 0 && g.InDegree(v) == 0
}

// InOutNodes returns the in-nodes and out-nodes of the graph.
func (g *PreferenceGraph) InOutNodes() (inNodes, outNodes []int) {
	for v := 0; v < g.n; v++ {
		if g.IsInNode(v) {
			inNodes = append(inNodes, v)
		}
		if g.IsOutNode(v) {
			outNodes = append(outNodes, v)
		}
	}
	return inNodes, outNodes
}

// OneEdges returns every directed edge of weight exactly 1 (the "1-edges" of
// Section V-B: unanimous preferences that smoothing must relax). The result
// is sorted so that callers consuming randomness per edge stay
// deterministic.
func (g *PreferenceGraph) OneEdges() []Pair {
	out, _ := g.adjacency()
	var edges []Pair
	for i := 0; i < g.n; i++ {
		for _, j := range out[i] {
			if feq.One(g.w[i][j]) {
				edges = append(edges, Pair{I: i, J: j})
			}
		}
	}
	slices.SortFunc(edges, func(a, b Pair) int {
		if c := cmp.Compare(a.I, b.I); c != 0 {
			return c
		}
		return cmp.Compare(a.J, b.J)
	})
	return edges
}

// IsHamiltonianPath reports whether path visits every vertex exactly once
// along positive-weight edges.
func (g *PreferenceGraph) IsHamiltonianPath(path []int) bool {
	if len(path) != g.n {
		return false
	}
	seen := make(map[int]bool, len(path))
	for idx, v := range path {
		if v < 0 || v >= g.n || seen[v] {
			return false
		}
		seen[v] = true
		if idx > 0 && g.Weight(path[idx-1], v) <= 0 {
			return false
		}
	}
	return true
}

// IsComplete reports whether every ordered pair (i, j), i != j, carries a
// positive weight — the state Theorem 5.1 relies on to guarantee an HP.
func (g *PreferenceGraph) IsComplete() bool {
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if i != j && g.w[i][j] <= 0 {
				return false
			}
		}
	}
	return true
}
