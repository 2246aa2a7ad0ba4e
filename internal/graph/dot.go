package graph

import (
	"fmt"
	"io"
	"sort"
)

// WriteDOT renders the task graph in Graphviz DOT format, one line per
// undirected edge, for debugging task assignments visually.
func (g *TaskGraph) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "task_graph"
	}
	if _, err := fmt.Fprintf(w, "graph %s {\n", name); err != nil {
		return err
	}
	for v := 0; v < g.n; v++ {
		if _, err := fmt.Fprintf(w, "  v%d [label=\"%d (d=%d)\"];\n", v, v, g.Degree(v)); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(w, "  v%d -- v%d;\n", e.I, e.J); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// WriteDOT renders the preference graph in Graphviz DOT format with edge
// weights as labels. Edges are emitted in sorted order so output is
// deterministic.
func (g *PreferenceGraph) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "preference_graph"
	}
	if _, err := fmt.Fprintf(w, "digraph %s {\n", name); err != nil {
		return err
	}
	for v := 0; v < g.n; v++ {
		shape := "ellipse"
		switch {
		case g.IsInNode(v):
			shape = "doublecircle" // forced-last object (in-node)
		case g.IsOutNode(v):
			shape = "box" // forced-first object (out-node)
		}
		if _, err := fmt.Fprintf(w, "  v%d [label=\"%d\", shape=%s];\n", v, v, shape); err != nil {
			return err
		}
	}
	type edge struct {
		i, j   int
		weight float64
	}
	out, _ := g.adjacency()
	var edges []edge
	for i := 0; i < g.n; i++ {
		for _, j := range out[i] {
			edges = append(edges, edge{i: i, j: j, weight: g.w[i][j]})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		return edges[a].j < edges[b].j
	})
	for _, e := range edges {
		if _, err := fmt.Fprintf(w, "  v%d -> v%d [label=\"%.3f\"];\n", e.i, e.j, e.weight); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
