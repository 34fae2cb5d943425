package graph

import (
	"testing"
	"testing/quick"

	"github.com/svgic/svgic/internal/stats"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) = false")
	}
	if g.AddEdge(0, 1) {
		t.Error("duplicate AddEdge succeeded")
	}
	if g.AddEdge(1, 1) {
		t.Error("self-loop accepted")
	}
	if g.AddEdge(-1, 2) || g.AddEdge(0, 3) {
		t.Error("out-of-range edge accepted")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("directedness broken")
	}
	if !g.Connected(1, 0) {
		t.Error("Connected should be symmetric")
	}
	if g.NumEdges() != 1 || g.NumPairs() != 1 {
		t.Errorf("edges/pairs = %d/%d, want 1/1", g.NumEdges(), g.NumPairs())
	}
	g.AddEdge(1, 0) // reverse direction: new edge, same pair
	if g.NumEdges() != 2 || g.NumPairs() != 1 {
		t.Errorf("after reverse: edges/pairs = %d/%d, want 2/1", g.NumEdges(), g.NumPairs())
	}
	if idx, ok := g.PairIndex(1, 0); !ok || idx != 0 {
		t.Errorf("PairIndex(1,0) = %d,%v want 0,true", idx, ok)
	}
	if _, ok := g.PairIndex(0, 2); ok {
		t.Error("PairIndex of non-pair returned ok")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(3)
	g.AddEdge(2, 0)
	g.AddEdge(0, 2)
	g.AddEdge(1, 0)
	es := g.Edges()
	want := [][2]int{{0, 2}, {1, 0}, {2, 0}}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges() = %v, want %v", es, want)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(5)
	g.AddMutualEdge(0, 1)
	g.AddMutualEdge(1, 2)
	g.AddEdge(3, 1)
	sub, orig, err := g.InducedSubgraph([]int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != 3 || orig[0] != 1 {
		t.Errorf("orig = %v", orig)
	}
	if !sub.HasEdge(1, 0) { // 3->1 becomes 1->0
		t.Error("missing remapped edge 3->1")
	}
	if sub.NumEdges() != 1 {
		t.Errorf("sub edges = %d, want 1", sub.NumEdges())
	}
	if _, _, err := g.InducedSubgraph([]int{1, 1}); err == nil {
		t.Error("duplicate vertex accepted")
	}
	if _, _, err := g.InducedSubgraph([]int{9}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(3)
	g.AddMutualEdge(0, 1)
	c := g.Clone()
	c.AddMutualEdge(1, 2)
	if g.Connected(1, 2) {
		t.Error("clone mutated the original")
	}
	if !c.Connected(0, 1) {
		t.Error("clone lost an edge")
	}
}

func TestCompleteAndEmpty(t *testing.T) {
	g := Complete(5)
	if g.NumPairs() != 10 || g.NumEdges() != 20 {
		t.Errorf("complete: pairs=%d edges=%d", g.NumPairs(), g.NumEdges())
	}
	if Density(g) != 1 {
		t.Errorf("complete density = %v", Density(g))
	}
	if AverageClustering(g) != 1 {
		t.Errorf("complete clustering = %v", AverageClustering(g))
	}
	e := Empty(4)
	if e.NumEdges() != 0 || Density(e) != 0 {
		t.Error("empty graph not empty")
	}
}

func TestGeneratorsDeterministicAndSane(t *testing.T) {
	cases := []struct {
		name string
		gen  func(seed uint64) *Graph
	}{
		{"ER", func(s uint64) *Graph { return ErdosRenyi(30, 0.2, stats.NewRand(s)) }},
		{"BA", func(s uint64) *Graph { return BarabasiAlbert(30, 3, stats.NewRand(s)) }},
		{"HK", func(s uint64) *Graph { return HolmeKim(30, 3, 0.5, stats.NewRand(s)) }},
		{"WS", func(s uint64) *Graph { return WattsStrogatz(30, 2, 0.1, stats.NewRand(s)) }},
	}
	for _, tc := range cases {
		a, b := tc.gen(7), tc.gen(7)
		if a.NumEdges() != b.NumEdges() || a.NumPairs() != b.NumPairs() {
			t.Errorf("%s: same seed, different graphs", tc.name)
		}
		if a.NumVertices() != 30 {
			t.Errorf("%s: wrong vertex count", tc.name)
		}
		// All generators make mutual edges: edges = 2 * pairs.
		if a.NumEdges() != 2*a.NumPairs() {
			t.Errorf("%s: edges=%d pairs=%d, want mutual", tc.name, a.NumEdges(), a.NumPairs())
		}
	}
}

func TestBAConnectedAndDegreeSkew(t *testing.T) {
	g := BarabasiAlbert(200, 3, stats.NewRand(9))
	comps := ConnectedComponents(g)
	if len(comps) != 1 {
		t.Errorf("BA graph has %d components, want 1", len(comps))
	}
	_, mean, max := DegreeStats(g)
	if float64(max) < 2.5*mean {
		t.Errorf("BA degree distribution not heavy-tailed: mean %.1f max %d", mean, max)
	}
}

func TestHolmeKimClusteringHigherThanBA(t *testing.T) {
	ba := BarabasiAlbert(150, 3, stats.NewRand(5))
	hk := HolmeKim(150, 3, 0.8, stats.NewRand(5))
	if AverageClustering(hk) <= AverageClustering(ba) {
		t.Errorf("triad closure did not raise clustering: HK %.3f vs BA %.3f",
			AverageClustering(hk), AverageClustering(ba))
	}
}

func TestRandomWalkSample(t *testing.T) {
	g := BarabasiAlbert(100, 3, stats.NewRand(1))
	sub, orig := RandomWalkSample(g, 20, stats.NewRand(2))
	if sub.NumVertices() != 20 || len(orig) != 20 {
		t.Fatalf("sample size = %d", sub.NumVertices())
	}
	seen := map[int]bool{}
	for _, v := range orig {
		if seen[v] {
			t.Fatal("duplicate vertex in sample")
		}
		seen[v] = true
	}
	// Sampling more than the population returns everything.
	all, origAll := RandomWalkSample(g, 500, stats.NewRand(3))
	if all.NumVertices() != 100 || len(origAll) != 100 {
		t.Error("oversized sample did not return the full graph")
	}
}

func TestEgoNetwork(t *testing.T) {
	// Path 0-1-2-3-4: 2 hops from 2 reaches everyone except nothing; from 0
	// reaches {0,1,2}.
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddMutualEdge(i, i+1)
	}
	sub, orig := EgoNetwork(g, 0, 2)
	if sub.NumVertices() != 3 || orig[0] != 0 {
		t.Errorf("ego(0,2) = %v", orig)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.AddMutualEdge(0, 1)
	g.AddMutualEdge(2, 3)
	g.AddMutualEdge(3, 4)
	comps := ConnectedComponents(g)
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 3 {
		t.Errorf("largest component size = %d, want 3", len(comps[0]))
	}
}

func TestSubsetDensity(t *testing.T) {
	g := Complete(6)
	if d := SubsetDensity(g, []int{0, 1, 2}); d != 1 {
		t.Errorf("subset density of clique = %v", d)
	}
	if d := SubsetDensity(g, []int{0}); d != 0 {
		t.Errorf("singleton density = %v", d)
	}
	e := Empty(6)
	if d := SubsetDensity(e, []int{0, 1, 2}); d != 0 {
		t.Errorf("empty subset density = %v", d)
	}
}

func TestBalancedPartitionPaperExample(t *testing.T) {
	// The running example's friendship graph: pairs A-B, A-C, A-D, B-C.
	// The unique minimum balanced 2-cut is {A,D} | {B,C}.
	g := New(4)
	g.AddMutualEdge(0, 1)
	g.AddMutualEdge(0, 2)
	g.AddMutualEdge(0, 3)
	g.AddMutualEdge(1, 2)
	p := BalancedPartition(g, 2, stats.NewRand(1))
	if p[0] != p[3] || p[1] != p[2] || p[0] == p[1] {
		t.Errorf("partition = %v, want {0,3}|{1,2}", p)
	}
	side := make([]bool, 4)
	for v, grp := range p {
		side[v] = grp == p[0]
	}
	if cut := CutSize(g, side); cut != 2 {
		t.Errorf("cut = %d, want 2", cut)
	}
}

func TestBalancedPartitionSizes(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw, gRaw uint8) bool {
		n := int(nRaw%40) + 2
		groups := int(gRaw%5) + 1
		g := ErdosRenyi(n, 0.3, stats.NewRand(seed))
		p := BalancedPartition(g, groups, stats.NewRand(seed+1))
		if groups > n {
			groups = n
		}
		sizes := make(map[int]int)
		for _, grp := range p {
			sizes[grp]++
		}
		min, max := n, 0
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		return max-min <= 1
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestLabelPropagationFindsTwoCliques(t *testing.T) {
	// Two 6-cliques joined by one edge.
	g := New(12)
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			g.AddMutualEdge(a, b)
			g.AddMutualEdge(a+6, b+6)
		}
	}
	g.AddMutualEdge(0, 6)
	labels := LabelPropagation(g, stats.NewRand(3), 50)
	if labels[0] != labels[5] || labels[6] != labels[11] {
		t.Errorf("cliques split: %v", labels)
	}
	if labels[0] == labels[6] {
		t.Errorf("cliques merged: %v", labels)
	}
}

func TestGreedyModularityTwoCliques(t *testing.T) {
	g := New(8)
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			g.AddMutualEdge(a, b)
			g.AddMutualEdge(a+4, b+4)
		}
	}
	g.AddMutualEdge(0, 4)
	comm := GreedyModularity(g)
	if comm[0] != comm[3] || comm[4] != comm[7] || comm[0] == comm[4] {
		t.Errorf("modularity communities = %v, want two cliques", comm)
	}
	if q := Modularity(g, comm); q <= 0.2 {
		t.Errorf("modularity = %v, want > 0.2", q)
	}
}

func TestGroupsOf(t *testing.T) {
	groups := GroupsOf([]int{0, 2, 0, 2, 5})
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 2 || groups[0][0] != 0 || groups[0][1] != 2 {
		t.Errorf("group 0 = %v", groups[0])
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	if q := Modularity(Empty(5), []int{0, 0, 0, 0, 0}); q != 0 {
		t.Errorf("modularity of empty graph = %v", q)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := New(5)
	g.AddMutualEdge(0, 1)
	g.AddMutualEdge(0, 2)
	g.AddMutualEdge(0, 3)
	h := DegreeHistogram(g)
	if h[0] != 1 { // vertex 4 isolated
		t.Errorf("bucket 0 = %d", h[0])
	}
	if h[1] != 3 || h[3] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestReciprocity(t *testing.T) {
	g := New(3)
	g.AddMutualEdge(0, 1)
	g.AddEdge(1, 2)
	if r := Reciprocity(g); r != 0.5 {
		t.Errorf("reciprocity = %v, want 0.5", r)
	}
	if r := Reciprocity(Empty(3)); r != 0 {
		t.Errorf("empty reciprocity = %v", r)
	}
}

func TestAveragePathLength(t *testing.T) {
	// Path graph 0-1-2: pairs (0,1)=1, (1,2)=1, (0,2)=2 → mean 4/3.
	g := New(3)
	g.AddMutualEdge(0, 1)
	g.AddMutualEdge(1, 2)
	if got := AveragePathLength(g, 0); got < 1.33 || got > 1.34 {
		t.Errorf("average path length = %v, want 4/3", got)
	}
	if got := AveragePathLength(Complete(6), 0); got != 1 {
		t.Errorf("clique path length = %v, want 1", got)
	}
}

func TestDegreeAssortativityDisassortativeStar(t *testing.T) {
	// A star is maximally disassortative.
	g := New(6)
	for v := 1; v < 6; v++ {
		g.AddMutualEdge(0, v)
	}
	if a := DegreeAssortativity(g); a >= 0 {
		t.Errorf("star assortativity = %v, want < 0", a)
	}
	if a := DegreeAssortativity(Empty(3)); a != 0 {
		t.Errorf("empty assortativity = %v", a)
	}
}

// TestAddVertexMatchesRebuild grows a clone of a random directed graph —
// one-way edges in both directions, inserted in random order — vertex by
// vertex, and checks after each AddVertex that every order equals that of
// the rebuild it stands for: the previous graph re-inserted edge by edge
// into one more vertex, then the new vertex's mutual edges in friend order.
func TestAddVertexMatchesRebuild(t *testing.T) {
	r := stats.NewRand(7)
	const n0 = 30
	g0 := New(n0)
	for i := 0; i < 4*n0; i++ {
		u, v := r.IntN(n0), r.IntN(n0)
		if r.Float64() < 0.5 {
			g0.AddMutualEdge(u, v)
		} else {
			g0.AddEdge(u, v)
		}
	}
	rebuild := func(h *Graph, friends []int) *Graph {
		n := h.NumVertices()
		c := New(n + 1)
		for u := 0; u < n; u++ {
			for _, v := range h.Out(u) {
				c.AddEdge(u, v)
			}
		}
		for _, f := range friends {
			c.AddMutualEdge(n, f)
		}
		return c
	}
	same := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	pairsOf := func(h *Graph, idx []int) [][2]int {
		out := make([][2]int, len(idx))
		for i, e := range idx {
			out[i] = h.Pairs()[e]
		}
		return out
	}
	g, want := g0.Clone(), g0.Clone()
	for step := 0; step < 40; step++ {
		n := g.NumVertices()
		var friends []int
		for f := 0; f < n; f++ {
			if r.Float64() < 0.1 {
				friends = append(friends, f)
			}
		}
		if nu := g.AddVertex(friends); nu != n {
			t.Fatalf("AddVertex returned %d, want %d", nu, n)
		}
		want = rebuild(want, friends)
		if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() || g.NumPairs() != want.NumPairs() {
			t.Fatalf("step %d: %v, rebuild %v", step, g, want)
		}
		for u := 0; u <= n; u++ {
			if !same(g.Out(u), want.Out(u)) || !same(g.In(u), want.In(u)) || !same(g.Neighbors(u), want.Neighbors(u)) {
				t.Fatalf("step %d vertex %d: adjacency order differs from the rebuild's", step, u)
			}
			got, exp := pairsOf(g, g.IncidentPairs(u)), pairsOf(want, want.IncidentPairs(u))
			for i := range exp {
				if got[i] != exp[i] {
					t.Fatalf("step %d vertex %d: incident pairs %v, rebuild %v", step, u, got, exp)
				}
			}
		}
		if step%3 == 0 {
			g.RenumberPairs()
			for i, p := range want.Pairs() {
				if g.Pairs()[i] != p {
					t.Fatalf("step %d: renumbered pair %d is %v, rebuild's %v", step, i, g.Pairs()[i], p)
				}
				if idx, ok := g.PairIndex(p[0], p[1]); !ok || idx != i {
					t.Fatalf("step %d: PairIndex%v = %d,%v want %d", step, p, idx, ok, i)
				}
			}
			for u := 0; u <= n; u++ {
				if !same(g.IncidentPairs(u), want.IncidentPairs(u)) {
					t.Fatalf("step %d vertex %d: renumbered incident pairs %v, rebuild %v", step, u, g.IncidentPairs(u), want.IncidentPairs(u))
				}
			}
		}
	}
	c := g.Clone()
	for u := 0; u < g.NumVertices(); u++ {
		if !same(g.Out(u), c.Out(u)) {
			t.Fatalf("vertex %d: clone out order differs", u)
		}
	}
}

// TestKeyIndependentOfSize: edge and pair lookups survive growth, since the
// keys no longer encode the vertex count.
func TestKeyIndependentOfSize(t *testing.T) {
	g := New(2)
	g.AddEdge(1, 0)
	nu := g.AddVertex([]int{0, 1})
	if !g.HasEdge(1, 0) || g.HasEdge(0, 1) || !g.HasEdge(nu, 1) || !g.HasEdge(0, nu) {
		t.Fatal("edge lookup broken after AddVertex")
	}
	if idx, ok := g.PairIndex(0, 1); !ok || idx != 0 {
		t.Fatalf("PairIndex(0,1) = %d,%v want 0,true", idx, ok)
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != nu {
		t.Fatalf("Neighbors(1) = %v, want [0 %d]", got, nu)
	}
}
