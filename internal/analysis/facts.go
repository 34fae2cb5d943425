package analysis

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/svgic/svgic/internal/analysis/flow"
)

// This file is the cross-package knowledge layer. Analyzers like locksolve
// ("no solve call reachable while a state lock is held") need to know, for a
// call to some helper in another package, whether that helper transitively
// reaches a solver. ASTs of dependency packages are not available when
// running as a `go vet -vettool` compilation unit, so the knowledge travels
// as per-function Facts: computed bottom-up in dependency order, serialized
// between vet units as JSON (the .vetx files of the vet protocol), and
// accumulated in-process by the standalone driver and the test harness.

// FuncFact is what the suite records about one function or method.
type FuncFact struct {
	// Solvy: the function synchronously calls a solver entry point
	// (Solve/SolveWith/SolveBatch…, see SolveName), directly or transitively.
	// Calls made on new goroutines (`go f(...)`) do not count: spawning
	// background solving is not the same as solving on the caller's path.
	Solvy bool `json:"solvy,omitempty"`
	// Persisty: the function synchronously reaches a durability hook (the
	// session.Persister methods — the "store enqueue" of the lock invariant).
	Persisty bool `json:"persisty,omitempty"`
	// Locks are the lock classes (see SyncClass) the function synchronously
	// acquires, directly or transitively. Acquisitions inside `go`-spawned
	// bodies do not count — they happen on another goroutine, so a caller
	// holding a lock across this call is not ordered against them.
	Locks []string `json:"locks,omitempty"`
	// WGDone are the sync.WaitGroup classes the function synchronously calls
	// Done on, directly or transitively — how goleak proves a named spawned
	// function pays back the owner's Add.
	WGDone []string `json:"wgDone,omitempty"`
	// Terminates: the function is lifecycle-bound per TerminatesLifecycle —
	// it selects on a context Done channel or a channel its package closes.
	// Propagated through synchronous callees: a thin wrapper around a
	// terminating loop terminates too.
	Terminates bool `json:"terminates,omitempty"`
}

func (f FuncFact) isZero() bool {
	return !f.Solvy && !f.Persisty &&
		len(f.Locks) == 0 && len(f.WGDone) == 0 && !f.Terminates
}

// LockEdge is one program-wide lock-order edge: lock class To is acquired
// while From is held, first observed at Pos ("file.go:line"). The edges are
// global by nature — a cycle is a property of the whole program, not of one
// package — so unlike FuncFacts they are not keyed by function.
type LockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Pos  string `json:"pos"`
}

// Facts is a function-fact table keyed by FuncKey, plus the accumulated
// program-wide lock-order edges.
type Facts struct {
	m     map[string]FuncFact
	edges map[[2]string]string // {from, to} → pos label
}

// NewFacts returns an empty fact table.
func NewFacts() *Facts {
	return &Facts{m: make(map[string]FuncFact), edges: make(map[[2]string]string)}
}

// AddLockEdge records a lock-order edge. The position label kept for a
// duplicated edge is the lexicographically smallest, so the table is
// deterministic regardless of package processing order.
func (fs *Facts) AddLockEdge(from, to, pos string) {
	k := [2]string{from, to}
	if cur, ok := fs.edges[k]; !ok || pos < cur {
		fs.edges[k] = pos
	}
}

// LockEdges returns the accumulated acquisition-order graph, sorted.
func (fs *Facts) LockEdges() []LockEdge {
	out := make([]LockEdge, 0, len(fs.edges))
	for k, pos := range fs.edges {
		out = append(out, LockEdge{From: k[0], To: k[1], Pos: pos})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Of looks up the fact recorded for a function object. The zero fact is
// returned for functions the suite has not (yet) analyzed — external code is
// assumed neither solvy nor persisty, which keeps the analyzers quiet rather
// than noisy about the standard library.
func (fs *Facts) Of(fn *types.Func) FuncFact {
	if fn == nil {
		return FuncFact{}
	}
	return fs.m[FuncKey(fn)]
}

// factsPayload is the vetx wire format: the per-function table plus the
// lock-order edges contributed by every package seen so far.
type factsPayload struct {
	Funcs     map[string]FuncFact `json:"funcs,omitempty"`
	LockEdges []LockEdge          `json:"lockEdges,omitempty"`
}

// Merge adds every entry of the JSON-encoded table (a dependency's .vetx
// payload) to the receiver.
func (fs *Facts) Merge(data []byte) error {
	var p factsPayload
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	for k, v := range p.Funcs {
		fs.m[k] = v
	}
	for _, e := range p.LockEdges {
		fs.AddLockEdge(e.From, e.To, e.Pos)
	}
	return nil
}

// ExportAll serializes every non-zero fact in the table, plus the whole edge
// graph. The vet protocol hands each compilation unit only its direct
// dependencies' fact files, so a unit must re-export the transitive closure
// it has accumulated, not just its own slice.
func (fs *Facts) ExportAll() ([]byte, error) {
	p := factsPayload{Funcs: make(map[string]FuncFact), LockEdges: fs.LockEdges()}
	for k, v := range fs.m {
		if !v.isZero() {
			p.Funcs[k] = v
		}
	}
	return json.Marshal(p)
}

// FuncKey names a function or method across package boundaries:
// "pkg/path.Func" or "pkg/path.Recv.Method" (pointer receivers are
// flattened). The key is what fact tables and the sanctioned-suppression
// table are indexed by.
func FuncKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name() // error.Error and friends
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			key += name + "."
		}
	}
	return key + fn.Name()
}

func recvTypeName(t types.Type) string {
	switch t := t.(type) {
	case *types.Pointer:
		return recvTypeName(t.Elem())
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return "" // anonymous interface receiver: method sets only
	}
	return ""
}

// SolveName reports whether a callee name is a solver entry point: Solve
// itself and the Solve* family (SolveWith, SolveBatch, SolveCtx, SolveAVG,
// SolveRelaxation, …). Solver*, the registry/identity helpers, are not solve
// calls.
func SolveName(name string) bool {
	if name == "Solve" {
		return true
	}
	return strings.HasPrefix(name, "Solve") && !strings.HasPrefix(name, "Solver")
}

// PersistNames are the durability hooks of session.Persister — the "store
// enqueue" calls of the locksolve invariant. Name-matched so fixture
// persisters and the real interface both count.
var PersistNames = map[string]bool{
	"SessionCreated": true,
	"EventsApplied":  true,
	"ConfigAdopted":  true,
	"SnapshotCut":    true,
	"SessionEnded":   true,
}

// Callee resolves the static callee of a call expression, or nil for
// builtins, conversions and function-typed variables.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// CalleeName returns the bare name a call is made under, resolving through
// nothing — "Solve" for both s.Solve(...) and Solve(...). Empty for calls to
// function values computed by arbitrary expressions.
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// funcNode is one declaration during the per-package fact fixpoint.
type funcNode struct {
	key     string
	fact    FuncFact
	callees []string        // FuncKeys of statically resolved synchronous callees
	locks   map[string]bool // lock classes acquired, updated during the fixpoint
	wgDone  map[string]bool // WaitGroup classes Done'd, likewise
}

// ComputePackageFacts derives the FuncFacts of one package and adds them,
// plus the package's lock-order edges, to the table. Dependencies' facts
// must already be present (packages are processed in dependency order);
// intra-package recursion is handled by a fixpoint.
func ComputePackageFacts(fset *token.FileSet, files []*ast.File, info *types.Info, facts *Facts) {
	// Production files only for the lifecycle and lock-order scans: a test
	// unit (package + _test.go files) must derive the same concurrency facts
	// as the plain unit, and test-only lock usage must not order the graph.
	var prod []*ast.File
	for _, file := range files {
		if f := fset.File(file.Pos()); f == nil || !strings.HasSuffix(f.Name(), "_test.go") {
			prod = append(prod, file)
		}
	}
	closed := ClosedChanClasses(prod, info)
	nodes := make(map[string]*funcNode)
	var order []string
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			n := &funcNode{
				key:    FuncKey(obj),
				locks:  make(map[string]bool),
				wgDone: make(map[string]bool),
			}
			n.fact.Terminates = TerminatesLifecycle(fd.Body, info, closed)
			SyncCalls(fd.Body, func(call *ast.CallExpr) {
				if name := CalleeName(call); SolveName(name) {
					n.fact.Solvy = true
				} else if PersistNames[name] {
					n.fact.Persisty = true
				}
				if _, class, op := MutexOp(info, call); op == flow.Acquire {
					n.locks[class] = true
				}
				if class, method := WaitGroupOp(info, call); method == "Done" {
					n.wgDone[class] = true
				}
				if callee := Callee(info, call); callee != nil {
					n.callees = append(n.callees, FuncKey(callee))
				}
			})
			nodes[n.key] = n
			order = append(order, n.key)
		}
	}
	// Propagate the synchronous facts through the package's internal call
	// graph to a fixpoint; external callees are final already.
	for changed := true; changed; {
		changed = false
		for _, key := range order {
			n := nodes[key]
			for _, callee := range n.callees {
				var f FuncFact
				if cn, ok := nodes[callee]; ok {
					f = FuncFact{
						Solvy:      cn.fact.Solvy,
						Persisty:   cn.fact.Persisty,
						Terminates: cn.fact.Terminates,
						Locks:      sortedKeys(cn.locks),
						WGDone:     sortedKeys(cn.wgDone),
					}
				} else {
					f = facts.m[callee]
				}
				if f.Solvy && !n.fact.Solvy {
					n.fact.Solvy = true
					changed = true
				}
				if f.Persisty && !n.fact.Persisty {
					n.fact.Persisty = true
					changed = true
				}
				if f.Terminates && !n.fact.Terminates {
					n.fact.Terminates = true
					changed = true
				}
				for _, lock := range f.Locks {
					if !n.locks[lock] {
						n.locks[lock] = true
						changed = true
					}
				}
				for _, wg := range f.WGDone {
					if !n.wgDone[wg] {
						n.wgDone[wg] = true
						changed = true
					}
				}
			}
		}
	}
	for _, key := range order {
		n := nodes[key]
		n.fact.Locks = sortedKeys(n.locks)
		n.fact.WGDone = sortedKeys(n.wgDone)
		if !n.fact.isZero() {
			facts.m[key] = n.fact
		}
	}
	// Lock-order edges, collected after the fixpoint so calls made under
	// held locks expand through final callee lock sets.
	for _, e := range CollectLockEdges(info, prod, facts) {
		facts.AddLockEdge(e.From, e.To, PosLabel(fset, e.Pos))
	}
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SyncCalls walks a function body and invokes fn for every call that
// executes on the caller's goroutine. Calls launched with `go` are skipped —
// along with the bodies of function literals launched that way — but their
// argument expressions are walked (they evaluate synchronously). Function
// literals that are deferred, invoked immediately or stored all count as
// synchronous: deferred calls run before the function returns, and a stored
// closure is conservatively assumed to be called.
func SyncCalls(body *ast.BlockStmt, fn func(*ast.CallExpr)) {
	if body == nil {
		return
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			if call, ok := n.(*ast.CallExpr); ok {
				fn(call)
			}
			return true
		}
		for _, arg := range g.Call.Args {
			ast.Inspect(arg, walk)
		}
		// Skip g.Call itself and, for `go func(){...}()`, the literal's body.
		if _, isLit := ast.Unparen(g.Call.Fun).(*ast.FuncLit); !isLit {
			// A method value like `go m.loop()` still evaluates its receiver
			// expression synchronously.
			if sel, ok := ast.Unparen(g.Call.Fun).(*ast.SelectorExpr); ok {
				ast.Inspect(sel.X, walk)
			}
		}
		return false
	}
	ast.Inspect(body, walk)
}
