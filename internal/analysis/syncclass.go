package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"github.com/svgic/svgic/internal/analysis/flow"
)

// This file names sync primitives. The concurrency analyzers (lockorder,
// goleak) reason about lock CLASSES, not lock instances: every session's `mu`
// is the same class, because the deadlock question "may Session.mu be
// acquired while Manager.mu is held?" is a property of the code shape, not of
// which session a particular goroutine touched. A class is keyed by the
// receiver type that owns the field — `session.Manager.mu`,
// `engine.Engine.cacheMu`, `store.Store.writerMu` — which is exactly the
// taxonomy documented in docs/STATIC_ANALYSIS.md.

// syncTypeName returns the sync-package type name of t after pointer deref —
// "Mutex", "RWMutex", "WaitGroup", … — or "" for anything not from sync.
func syncTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	return obj.Name()
}

// SyncClass names the sync primitive denoted by e as a class string:
//
//	pkg.Type.field   for a struct field (the lock-class taxonomy)
//	pkg.name         for a package-level variable
//	name@offset      for a function-local variable (never crosses functions)
//
// Empty when the expression does not name a field or variable (map/slice
// elements, results of calls).
func SyncClass(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		obj, ok := info.Uses[x.Sel].(*types.Var)
		if !ok || !obj.IsField() {
			return ""
		}
		return fieldClass(info.TypeOf(x.X), x.Sel.Name)
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		if !ok {
			return ""
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
		return v.Name() + "@" + strconv.Itoa(int(v.Pos()))
	}
	return ""
}

// fieldClass scopes a field name by the named type that holds it.
func fieldClass(recv types.Type, field string) string {
	if recv == nil {
		return ""
	}
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + field
}

// MutexOp classifies a call as a mutex operation: for s.mu.Lock() it returns
// the flow key (the receiver expression, so releases match their acquires
// precisely), the lock class, and Acquire; Unlock/RUnlock return Release.
// Anything that is not a sync.Mutex/sync.RWMutex method call — including
// TryLock, whose success is conditional — classifies as None.
func MutexOp(info *types.Info, call *ast.CallExpr) (key, class string, op flow.Op) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", flow.None
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = flow.Acquire
	case "Unlock", "RUnlock":
		op = flow.Release
	default:
		return "", "", flow.None
	}
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", flow.None
	}
	switch syncTypeName(info.TypeOf(sel.X)) {
	case "Mutex", "RWMutex":
		class = SyncClass(info, sel.X)
	default:
		// A promoted method on a type embedding the mutex: class the lock by
		// the embedding type itself, named after the sync type.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			class = fieldClass(info.TypeOf(sel.X), syncTypeName(sig.Recv().Type()))
		}
	}
	if class == "" {
		return "", "", flow.None
	}
	return types.ExprString(sel.X), class, op
}

// WaitGroupOp classifies a call as a sync.WaitGroup method: the WaitGroup's
// class and "Add", "Done" or "Wait". Empty class for anything else.
func WaitGroupOp(info *types.Info, call *ast.CallExpr) (class, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return "", ""
	}
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	if syncTypeName(info.TypeOf(sel.X)) != "WaitGroup" {
		return "", ""
	}
	class = SyncClass(info, sel.X)
	if class == "" {
		return "", ""
	}
	return class, sel.Sel.Name
}

// ChanClass names a channel-valued field or variable, or "" for other
// expressions. Used to match a close(ch) against the receives that select on
// the same channel class.
func ChanClass(info *types.Info, e ast.Expr) string {
	t := info.TypeOf(ast.Unparen(e))
	if t == nil {
		return ""
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return ""
	}
	return SyncClass(info, e)
}

// ClosedChanClasses records every channel class the package calls close() on,
// anywhere — Close methods close the done channels that loops spawned
// elsewhere in the package select on, so the scan is deliberately
// package-wide and includes goroutine bodies.
func ClosedChanClasses(files []*ast.File, info *types.Info) map[string]bool {
	out := make(map[string]bool)
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if _, ok := info.Uses[id].(*types.Builtin); !ok || id.Name != "close" {
				return true
			}
			if class := ChanClass(info, call.Args[0]); class != "" {
				out[class] = true
			}
			return true
		})
	}
	return out
}

// TerminatesLifecycle reports whether a function body is lifecycle-bound: on
// its own goroutine it selects on — or ranges over — a context's Done channel
// or a channel class its package closes (closed per ClosedChanClasses). A
// goroutine running such a body exits when its owner cancels the context or
// closes the channel. Bare `<-ch` receives outside a select deliberately do
// not count: blocking forever on an un-closed channel is exactly the leak
// shape, not a termination guarantee. Nested `go` bodies are their own
// goroutines and are skipped.
func TerminatesLifecycle(body *ast.BlockStmt, info *types.Info, closed map[string]bool) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && commReceiveTerminates(cc.Comm, info, closed) {
					found = true
				}
			}
		case *ast.RangeStmt:
			if chanTerminates(n.X, info, closed) {
				found = true
			}
		}
		return true
	})
	return found
}

// commReceiveTerminates reports whether a select comm clause receives from a
// lifecycle channel (`case <-done:`, `case v, ok := <-ch:`).
func commReceiveTerminates(comm ast.Stmt, info *types.Info, closed map[string]bool) bool {
	var x ast.Expr
	switch c := comm.(type) {
	case *ast.ExprStmt:
		x = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			x = c.Rhs[0]
		}
	}
	u, ok := ast.Unparen(x).(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return false
	}
	return chanTerminates(u.X, info, closed)
}

// chanTerminates: the channel expression is a context Done channel or a
// channel class the package closes.
func chanTerminates(x ast.Expr, info *types.Info, closed map[string]bool) bool {
	x = ast.Unparen(x)
	if call, ok := x.(*ast.CallExpr); ok {
		fn := Callee(info, call)
		return fn != nil && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context"
	}
	return closed[ChanClass(info, x)]
}
