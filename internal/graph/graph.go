// Package graph implements the paper's graph model (Section III): the
// unweighted undirected task graph G_T, the weighted directed preference
// graph G_P, transitive closures, Hamiltonian-path machinery, and strong
// connectivity. These structures underlie both task assignment (Section IV)
// and result inference (Section V).
package graph

import (
	"fmt"
	"sort"
)

// Pair identifies an unordered pairwise comparison task (O_i, O_j). The
// canonical form keeps I < J so that a Pair can be used as a map key.
type Pair struct {
	I, J int
}

// Canon returns the pair with its endpoints ordered so I < J.
func (p Pair) Canon() Pair {
	if p.I > p.J {
		return Pair{I: p.J, J: p.I}
	}
	return p
}

// Valid reports whether the pair connects two distinct non-negative vertices.
func (p Pair) Valid() bool {
	return p.I >= 0 && p.J >= 0 && p.I != p.J
}

func (p Pair) String() string { return fmt.Sprintf("(%d,%d)", p.I, p.J) }

// Slot returns the index of the canonical pair p (I < J) among the
// n(n-1)/2 pairs of n objects, counting in (I, J) order: (0,1) is slot 0
// and (n-2,n-1) is slot n(n-1)/2 - 1. Dense per-pair tables address their
// entries with it instead of hashing the pair.
func (p Pair) Slot(n int) int {
	return p.I*(2*n-p.I-1)/2 + p.J - p.I - 1
}

// TaskGraph is the unweighted, undirected task graph G_T: one vertex per
// object and one edge per pairwise comparison task.
type TaskGraph struct {
	n   int
	m   int
	adj []map[int]bool
}

// NewTaskGraph creates an edgeless task graph over n >= 1 vertices.
func NewTaskGraph(n int) (*TaskGraph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: task graph needs at least one vertex, got n=%d", n)
	}
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	return &TaskGraph{n: n, adj: adj}, nil
}

// N returns the number of vertices.
func (g *TaskGraph) N() int { return g.n }

// M returns the number of edges.
func (g *TaskGraph) M() int { return g.m }

// HasEdge reports whether the comparison (i, j) is already a task.
func (g *TaskGraph) HasEdge(i, j int) bool {
	if i < 0 || j < 0 || i >= g.n || j >= g.n || i == j {
		return false
	}
	return g.adj[i][j]
}

// AddEdge inserts the undirected edge (i, j). It rejects self-loops,
// out-of-range vertices, and duplicate edges, because each task must be a
// distinct comparison of two distinct objects.
func (g *TaskGraph) AddEdge(i, j int) error {
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", i, j, g.n)
	}
	if i == j {
		return fmt.Errorf("graph: self-loop (%d,%d) is not a valid comparison", i, j)
	}
	if g.adj[i][j] {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", i, j)
	}
	g.adj[i][j] = true
	g.adj[j][i] = true
	g.m++
	return nil
}

// RemoveEdge deletes the undirected edge (i, j) if present, reporting
// whether an edge was removed. Task generation uses it for degree-preserving
// double-edge swaps when repairing stub pairings.
func (g *TaskGraph) RemoveEdge(i, j int) bool {
	if !g.HasEdge(i, j) {
		return false
	}
	delete(g.adj[i], j)
	delete(g.adj[j], i)
	g.m--
	return true
}

// Degree returns the degree of vertex i.
func (g *TaskGraph) Degree(i int) int {
	if i < 0 || i >= g.n {
		return 0
	}
	return len(g.adj[i])
}

// Degrees returns the degree of every vertex.
func (g *TaskGraph) Degrees() []int {
	ds := make([]int, g.n)
	for i := range ds {
		ds[i] = len(g.adj[i])
	}
	return ds
}

// MinMaxDegree returns d_min and d_max over all vertices (Theorem 4.4 inputs).
func (g *TaskGraph) MinMaxDegree() (dmin, dmax int) {
	if g.n == 0 {
		return 0, 0
	}
	dmin, dmax = g.Degree(0), g.Degree(0)
	for i := 1; i < g.n; i++ {
		d := g.Degree(i)
		if d < dmin {
			dmin = d
		}
		if d > dmax {
			dmax = d
		}
	}
	return dmin, dmax
}

// Edges returns the edge list as canonical pairs in sorted (I, then J)
// order, so two graphs with the same edge set produce identical listings.
func (g *TaskGraph) Edges() []Pair {
	out := make([]Pair, 0, g.m)
	for i := 0; i < g.n; i++ {
		for j := range g.adj[i] {
			if i < j {
				out = append(out, Pair{I: i, J: j})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

// Connected reports whether the task graph is connected. A disconnected task
// graph can never yield a full ranking (Theorem 4.2), so callers treat this
// as a validity check.
func (g *TaskGraph) Connected() bool {
	if g.n == 0 {
		return false
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for u := range g.adj[v] {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == g.n
}

// IsRegular reports whether every vertex has the same degree, the Theorem 4.1
// fairness condition.
func (g *TaskGraph) IsRegular() bool {
	dmin, dmax := g.MinMaxDegree()
	return dmin == dmax
}

// ContainsPath reports whether the vertex sequence path is a path in the
// task graph (each consecutive pair adjacent, no repeated vertex).
func (g *TaskGraph) ContainsPath(path []int) bool {
	seen := make(map[int]bool, len(path))
	for idx, v := range path {
		if v < 0 || v >= g.n || seen[v] {
			return false
		}
		seen[v] = true
		if idx > 0 && !g.adj[path[idx-1]][v] {
			return false
		}
	}
	return true
}

// IsHamiltonianPath reports whether path visits every vertex exactly once
// along task-graph edges.
func (g *TaskGraph) IsHamiltonianPath(path []int) bool {
	return len(path) == g.n && g.ContainsPath(path)
}

// Clone returns a deep copy of the task graph.
func (g *TaskGraph) Clone() *TaskGraph {
	c, err := NewTaskGraph(g.n)
	if err != nil {
		//lint:ignore panics cloning a graph that was itself constructed via NewTaskGraph cannot fail; an error here is memory corruption
		panic("graph: clone of invalid graph: " + err.Error())
	}
	for _, e := range g.Edges() {
		if err := c.AddEdge(e.I, e.J); err != nil {
			//lint:ignore panics re-adding edges of a valid graph to an empty clone cannot collide or go out of range
			panic("graph: clone failed: " + err.Error())
		}
	}
	return c
}
