// Package lockorder detects potential deadlocks: cycles in the program-wide
// lock-acquisition-order graph.
//
// Every package contributes edges "lock class To is acquired while class
// From is held" — computed flow-sensitively (the shared internal/analysis/flow
// engine), including acquisitions made transitively through calls in this or
// any other package (the callee's Locks fact). The edges travel program-wide
// through the facts table; this analyzer walks the current package's own
// acquisitions and, for each one that closes a cycle in the global graph,
// reports the full acquisition chain with one file:line anchor per edge.
//
// Lock classes are receiver-scoped (`session.Manager.mu`, `engine.Engine.mu`):
// a cycle between classes means two goroutines can interleave the same two
// locks in opposite orders, whichever instances they hold — the
// table-sweep-vs-session-lock shape. A self-edge (a class acquired while
// another instance of the same class is held) is reported as a one-edge
// cycle: without a documented instance order it is the same hazard.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"github.com/svgic/svgic/internal/analysis"
)

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "report cycles in the program-wide lock-acquisition-order graph as potential deadlocks, " +
		"with the full acquisition chain (file:line per edge); acquire lock classes in one fixed global order",
	Run: run,
}

func run(pass *analysis.Pass) error {
	var prod []*ast.File
	for _, file := range pass.Files {
		if !pass.InTestFile(file.Pos()) {
			prod = append(prod, file)
		}
	}
	local := analysis.CollectLockEdges(pass.TypesInfo, prod, pass.Facts)
	if len(local) == 0 {
		return nil
	}

	// The program-wide graph: every edge any processed package contributed,
	// the current package's included (facts run before analyzers).
	adj := make(map[string][]analysis.LockEdge)
	for _, e := range pass.Facts.LockEdges() {
		adj[e.From] = append(adj[e.From], e)
	}

	// One anchor per distinct (from, to) the current package acquires: the
	// first occurrence in source order.
	type pair struct{ from, to string }
	anchor := make(map[pair]token.Pos)
	for _, e := range local {
		k := pair{e.From, e.To}
		if cur, ok := anchor[k]; !ok || e.Pos < cur {
			anchor[k] = e.Pos
		}
	}
	pairs := make([]pair, 0, len(anchor))
	for k := range anchor {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].from != pairs[j].from {
			return pairs[i].from < pairs[j].from
		}
		return pairs[i].to < pairs[j].to
	})

	// For each local edge u→v, a shortest path v⇝u in the global graph
	// closes a cycle. Each distinct cycle (canonicalized by rotating its
	// class sequence) is reported once per package, at the first local edge
	// that exposes it.
	reported := make(map[string]bool)
	for _, p := range pairs {
		back, ok := shortestPath(adj, p.to, p.from)
		if !ok {
			continue
		}
		cycle := append([]analysis.LockEdge{globalEdge(adj, p.from, p.to)}, back...)
		classes := make([]string, len(cycle))
		for i, e := range cycle {
			classes[i] = e.From
		}
		key := canonical(classes)
		if reported[key] {
			continue
		}
		reported[key] = true

		chain := make([]string, len(cycle))
		var msg strings.Builder
		msg.WriteString("lock-order cycle (potential deadlock): ")
		msg.WriteString(cycle[0].From)
		for i, e := range cycle {
			chain[i] = fmt.Sprintf("%s -> %s (%s)", e.From, e.To, e.Pos)
			fmt.Fprintf(&msg, " -> %s (%s)", e.To, e.Pos)
		}
		msg.WriteString("; acquire these lock classes in one fixed order")
		pass.ReportChain(anchor[p], chain, msg.String())
	}
	return nil
}

// globalEdge returns the graph's edge from→to (it exists: the local
// observation put it there), carrying the canonical position label.
func globalEdge(adj map[string][]analysis.LockEdge, from, to string) analysis.LockEdge {
	for _, e := range adj[from] {
		if e.To == to {
			return e
		}
	}
	return analysis.LockEdge{From: from, To: to, Pos: "?"}
}

// shortestPath BFS-walks the edge graph from src to dst and returns the edge
// path. src == dst returns an empty path (the cycle is the single edge the
// caller already holds).
func shortestPath(adj map[string][]analysis.LockEdge, src, dst string) ([]analysis.LockEdge, bool) {
	if src == dst {
		return nil, true
	}
	prev := make(map[string]analysis.LockEdge)
	queue := []string{src}
	seen := map[string]bool{src: true}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range adj[u] {
			if seen[e.To] {
				continue
			}
			seen[e.To] = true
			prev[e.To] = e
			if e.To == dst {
				var path []analysis.LockEdge
				for at := dst; at != src; at = prev[at].From {
					path = append(path, prev[at])
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, true
			}
			queue = append(queue, e.To)
		}
	}
	return nil, false
}

// canonical keys a cycle independent of its starting point: rotate the class
// sequence to begin at the lexicographically smallest class.
func canonical(classes []string) string {
	min := 0
	for i := range classes {
		if classes[i] < classes[min] {
			min = i
		}
	}
	return strings.Join(append(append([]string(nil), classes[min:]...), classes[:min]...), "|")
}
