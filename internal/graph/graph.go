// Package graph implements the directed social-network substrate used by the
// SVGIC library: storage, synthetic generators matching the characteristics
// of the paper's datasets, sub-network sampling, structural metrics and the
// community-detection routines needed by the subgroup-based baselines.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is a simple directed graph over vertices 0..n-1 with no self loops
// and no parallel edges; n stays below 2^31. In SVGIC the vertices are
// shoppers and a directed edge (u,v) means u receives social utility from
// discussing items with v.
//
// Besides the directed view the graph maintains its "social pairs": the
// unordered pairs {u,v} connected in at least one direction. Co-display is a
// symmetric event, so the core algorithms and metrics are defined over pairs
// while the per-direction τ utilities stay directional.
type Graph struct {
	n        int
	out      [][]int
	in       [][]int
	edgeSet  map[int64]struct{}
	pairs    [][2]int      // unique unordered pairs, u < v
	pairIdx  map[int64]int // key(u,v) with u < v -> index into pairs
	adjPairs [][]int       // per vertex: indices of incident pairs
	und      [][]int       // per vertex: unordered-pair neighbours

	// last is the vertex the latest AddVertex appended, still listed last
	// by its friends; -1 when there is none. renumber is set while Pairs
	// is not yet numbered as RenumberPairs would number it.
	last     int
	renumber bool
}

// New returns an empty directed graph with n vertices.
func New(n int) *Graph {
	return &Graph{
		n:        n,
		out:      make([][]int, n),
		in:       make([][]int, n),
		edgeSet:  make(map[int64]struct{}),
		pairIdx:  make(map[int64]int),
		adjPairs: make([][]int, n),
		und:      make([][]int, n),
		last:     -1,
	}
}

// key packs the vertex pair (u,v) into one map key. It does not depend on
// the vertex count, so AddVertex leaves every existing key valid.
func key(u, v int) int64 { return int64(u)<<32 | int64(v) }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edgeSet) }

// NumPairs returns the number of social pairs (unordered connected pairs).
func (g *Graph) NumPairs() int { return len(g.pairs) }

// AddEdge inserts the directed edge (u,v). Self loops and duplicates are
// ignored. It returns true when a new edge was inserted.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	k := key(u, v)
	if _, ok := g.edgeSet[k]; ok {
		return false
	}
	g.edgeSet[k] = struct{}{}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	a, b := u, v
	if a > b {
		a, b = b, a
	}
	pk := key(a, b)
	if _, ok := g.pairIdx[pk]; !ok {
		idx := len(g.pairs)
		g.pairIdx[pk] = idx
		g.pairs = append(g.pairs, [2]int{a, b})
		g.adjPairs[a] = append(g.adjPairs[a], idx)
		g.adjPairs[b] = append(g.adjPairs[b], idx)
		g.und[a] = append(g.und[a], b)
		g.und[b] = append(g.und[b], a)
	}
	return true
}

// AddVertex appends vertex n, joined by mutual edges to each of friends, and
// returns its id. friends must be distinct existing vertices in ascending
// order. It costs O(Σ deg(f)) over the friends of this vertex and of the
// one the previous AddVertex appended: no other vertex, edge, key or pair
// index moves.
//
// The result is the graph a rebuild would give: g.Clone() grown by one
// vertex, then AddMutualEdge(n, f) for each friend in turn. That holds for
// every order — Out, In, Neighbors, IncidentPairs as pairs, and Pairs
// after RenumberPairs — whenever g is itself a Clone or such a rebuild. So
// the new vertex is listed last among each friend's Neighbors, and its
// pairs are numbered last; the previous appended vertex moves to the place
// Clone gives it.
func (g *Graph) AddVertex(friends []int) int {
	nu := g.n
	for i, f := range friends {
		if f < 0 || f >= nu || (i > 0 && f <= friends[i-1]) {
			panic(fmt.Sprintf("graph: AddVertex friends %v are not distinct ascending ids below %d", friends, nu))
		}
	}
	g.settle()
	g.n++
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.adjPairs = append(g.adjPairs, nil)
	g.und = append(g.und, nil)
	for _, f := range friends {
		g.AddMutualEdge(nu, f)
	}
	if len(friends) > 0 {
		g.last = nu
		g.renumber = true
	}
	return nu
}

// settle moves g.last, the vertex the previous AddVertex appended, from the
// end of each friend's Neighbors and IncidentPairs to where Clone lists it.
// Clone creates the pair {f,last} at edge (f,last), f's latest out-edge:
// after every pair it creates while visiting vertices up to f, before the
// pairs of f's in-only neighbours w > f, which it creates while visiting w.
func (g *Graph) settle() {
	v := g.last
	if v < 0 {
		return
	}
	g.last = -1
	g.renumber = true
	for _, f := range g.und[v] {
		und, adj := g.und[f], g.adjPairs[f]
		i := len(und) - 1
		for und[i] != v {
			i--
		}
		e := adj[i]
		und, adj = slices.Delete(und, i, i+1), slices.Delete(adj, i, i+1)
		at := len(und)
		for at > 0 {
			if w := und[at-1]; w < f || g.HasEdge(f, w) {
				break
			}
			at--
		}
		g.und[f], g.adjPairs[f] = slices.Insert(und, at, v), slices.Insert(adj, at, e)
	}
}

// RenumberPairs numbers the social pairs as the rebuild AddVertex stands
// for would: each at its first edge, visiting the vertices in ascending
// order and each one's Out list in order, except that the pairs of the
// vertex the latest AddVertex appended come last, in its Neighbors order.
// A caller that sums floats over Pairs and must match that rebuild's bits
// renumbers after AddVertex first. It costs O(V+E) after an AddVertex and
// nothing otherwise.
func (g *Graph) RenumberPairs() {
	if !g.renumber {
		return
	}
	g.renumber = false
	remap := make([]int, len(g.pairs))
	g.pairs = g.pairs[:0]
	number := func(a, b int) {
		k := key(a, b)
		remap[g.pairIdx[k]] = len(g.pairs)
		g.pairIdx[k] = len(g.pairs)
		g.pairs = append(g.pairs, [2]int{a, b})
	}
	for u, out := range g.out {
		for _, v := range out {
			if u == g.last || v == g.last || (v < u && g.HasEdge(v, u)) {
				continue // numbered last, or at edge (v,u)
			}
			number(min(u, v), max(u, v))
		}
	}
	if g.last >= 0 {
		for _, f := range g.und[g.last] {
			number(f, g.last)
		}
	}
	for _, ps := range g.adjPairs {
		for i, e := range ps {
			ps[i] = remap[e]
		}
	}
}

// AddMutualEdge inserts both (u,v) and (v,u).
func (g *Graph) AddMutualEdge(u, v int) {
	g.AddEdge(u, v)
	g.AddEdge(v, u)
}

// HasEdge reports whether the directed edge (u,v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	_, ok := g.edgeSet[key(u, v)]
	return ok
}

// Connected reports whether u and v form a social pair (either direction).
func (g *Graph) Connected(u, v int) bool {
	return g.HasEdge(u, v) || g.HasEdge(v, u)
}

// Out returns the out-neighbours of u. The slice must not be modified.
func (g *Graph) Out(u int) []int { return g.out[u] }

// In returns the in-neighbours of u. The slice must not be modified.
func (g *Graph) In(u int) []int { return g.in[u] }

// Neighbors returns the social-pair neighbours of u (unordered adjacency).
// The slice must not be modified.
func (g *Graph) Neighbors(u int) []int { return g.und[u] }

// Pairs returns all social pairs as (u,v) with u < v.
// The slice must not be modified.
func (g *Graph) Pairs() [][2]int { return g.pairs }

// PairAt returns the i-th social pair.
func (g *Graph) PairAt(i int) (u, v int) { p := g.pairs[i]; return p[0], p[1] }

// PairIndex returns the index of the social pair {u,v} and whether it exists.
func (g *Graph) PairIndex(u, v int) (int, bool) {
	if u > v {
		u, v = v, u
	}
	idx, ok := g.pairIdx[key(u, v)]
	return idx, ok
}

// IncidentPairs returns the indices of the social pairs incident to u.
// The slice must not be modified.
func (g *Graph) IncidentPairs(u int) []int { return g.adjPairs[u] }

// Edges returns all directed edges sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	es := make([][2]int, 0, len(g.edgeSet))
	for u := 0; u < g.n; u++ {
		for _, v := range g.out[u] {
			es = append(es, [2]int{u, v})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// InducedSubgraph returns the subgraph induced by the given vertices together
// with the mapping from new vertex ids to the original ids. Vertex order is
// preserved; duplicate vertices are an error.
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, []int, error) {
	remap := make(map[int]int, len(vertices))
	orig := make([]int, len(vertices))
	for i, v := range vertices {
		if v < 0 || v >= g.n {
			return nil, nil, fmt.Errorf("graph: vertex %d out of range [0,%d)", v, g.n)
		}
		if _, dup := remap[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in induced subgraph", v)
		}
		remap[v] = i
		orig[i] = v
	}
	sub := New(len(vertices))
	for i, v := range vertices {
		for _, w := range g.out[v] {
			if j, ok := remap[w]; ok {
				sub.AddEdge(i, j)
			}
		}
	}
	return sub, orig, nil
}

// Clone returns a deep copy of g. It re-inserts the edges vertex by vertex
// in Out order, so the copy's adjacency orders depend on the Out lists
// alone.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.out[u] {
			c.AddEdge(u, v)
		}
	}
	return c
}

// String returns a short description like "Graph(n=4, edges=8, pairs=4)".
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, edges=%d, pairs=%d)", g.n, g.NumEdges(), g.NumPairs())
}
