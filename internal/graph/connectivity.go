package graph

// StronglyConnected reports whether the preference graph is strongly
// connected. Preference smoothing (Section V-B) relies on this property: a
// strongly connected smoothed graph guarantees that the transitive closure is
// complete and therefore Hamiltonian (Theorem 5.1).
//
// The check runs Tarjan's algorithm iteratively (no recursion, so it scales
// to large n without stack overflow) and reports whether exactly one
// strongly connected component covers the whole graph.
func (g *PreferenceGraph) StronglyConnected() bool {
	if g.n == 0 {
		return false
	}
	return len(g.StronglyConnectedComponents()) == 1
}

// StronglyConnectedComponents returns the strongly connected components of
// the preference graph in reverse topological order (Tarjan's order). Each
// component is a list of vertex indices.
func (g *PreferenceGraph) StronglyConnectedComponents() [][]int {
	const unvisited = -1

	out, _ := g.adjacency()
	index := make([]int, g.n)
	lowLink := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i] = unvisited
	}

	var (
		components [][]int
		stack      []int
		nextIndex  int
	)

	// frame holds the explicit DFS state: vertex v and the position within
	// its out-neighbor list.
	type frame struct {
		v, next int
	}

	for start := 0; start < g.n; start++ {
		if index[start] != unvisited {
			continue
		}
		frames := []frame{{v: start}}
		index[start] = nextIndex
		lowLink[start] = nextIndex
		nextIndex++
		stack = append(stack, start)
		onStack[start] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.next < len(out[v]) {
				u := out[v][f.next]
				f.next++
				if index[u] == unvisited {
					index[u] = nextIndex
					lowLink[u] = nextIndex
					nextIndex++
					stack = append(stack, u)
					onStack[u] = true
					frames = append(frames, frame{v: u})
				} else if onStack[u] && index[u] < lowLink[v] {
					lowLink[v] = index[u]
				}
				continue
			}

			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if lowLink[v] < lowLink[parent] {
					lowLink[parent] = lowLink[v]
				}
			}
			if lowLink[v] == index[v] {
				var comp []int
				for {
					u := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[u] = false
					comp = append(comp, u)
					if u == v {
						break
					}
				}
				components = append(components, comp)
			}
		}
	}
	return components
}

// Reachable returns, for each vertex, the set of vertices reachable by
// directed paths of any length (excluding the trivial empty path). The
// result is a boolean reachability matrix: reach[i][j] is true when a path
// i -> ... -> j exists. This is the unweighted skeleton of the transitive
// closure G_P^*.
func (g *PreferenceGraph) Reachable() [][]bool {
	reach := make([][]bool, g.n)
	backing := make([]bool, g.n*g.n)
	for i := range reach {
		reach[i], backing = backing[:g.n:g.n], backing[g.n:]
	}
	// BFS from each vertex. With m directed edges the cost is O(n(n+m)),
	// fine for the paper's scales and simpler than bitset Floyd-Warshall.
	out, _ := g.adjacency()
	queue := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range out[v] {
				if !reach[s][u] {
					reach[s][u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return reach
}

// HasHamiltonianPathReachability reports whether the *reachability* closure
// of the graph admits a Hamiltonian path, using the tournament-order test:
// the closure has an HP iff the vertices can be ordered so that each vertex
// reaches the next. For a transitively closed relation this holds iff the
// condensation (DAG of SCCs) is a total order under reachability.
func (g *PreferenceGraph) HasHamiltonianPathReachability() bool {
	if g.n == 1 {
		return true
	}
	comps := g.StronglyConnectedComponents()
	// Build reachability between components via the vertex reachability
	// matrix. Components in Tarjan's output are in reverse topological
	// order; a closure has an HP iff consecutive components (in topological
	// order) are connected by at least one edge.
	reach := g.Reachable()
	// Map vertex -> component id.
	compOf := make([]int, g.n)
	for id, comp := range comps {
		for _, v := range comp {
			compOf[v] = id
		}
	}
	k := len(comps)
	// topological order = reverse of Tarjan output order.
	order := make([]int, k)
	for i := range order {
		order[i] = k - 1 - i
	}
	for idx := 1; idx < k; idx++ {
		prev := comps[order[idx-1]]
		cur := comps[order[idx]]
		connected := false
		for _, a := range prev {
			for _, b := range cur {
				if reach[a][b] {
					connected = true
					break
				}
			}
			if connected {
				break
			}
		}
		if !connected {
			// Tarjan's reverse order is one valid topological order, but
			// when two components are incomparable the chosen order may
			// fail while another succeeds; incomparable components mean no
			// Hamiltonian chain exists anyway, so check comparability.
			a, b := prev[0], cur[0]
			if !reach[a][b] && !reach[b][a] {
				return false
			}
			// Comparable but ordered the other way: reachability in a DAG
			// of SCCs is antisymmetric, so b reaches a, meaning this
			// topological order was wrong only if the condensation is not
			// a chain. Fall back to the full chain test.
			return condensationIsChain(comps, reach)
		}
		_ = compOf
	}
	return true
}

// condensationIsChain reports whether the SCC condensation forms a total
// order under reachability (every pair of components comparable).
func condensationIsChain(comps [][]int, reach [][]bool) bool {
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			a, b := comps[i][0], comps[j][0]
			if !reach[a][b] && !reach[b][a] {
				return false
			}
		}
	}
	return true
}
