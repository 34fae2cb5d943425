// Package goleak enforces the goroutine-ownership policy in the serving
// packages (engine, session, server, store, telemetry, and the svgicd and
// svgicload binaries): every `go` statement must be lifecycle-bound. A spawned goroutine is acceptable
// when it is
//
//   - WaitGroup-tracked: a sync.WaitGroup is Add'ed on the owner's path
//     before the spawn, the spawned body (directly or through a callee's
//     WGDone fact) calls Done on that same WaitGroup class, and the package
//     Waits on it somewhere — the Close/Shutdown join; or
//   - lifecycle-terminated: the spawned body (or a callee, per its
//     Terminates fact) selects on a context Done channel or on a channel
//     class its package closes, so the owner's shutdown reaches it.
//
// Anything else is an untracked goroutine — the repair-fan-out leak shape.
// The analyzer also reports WaitGroup.Add inside the spawned function on a
// WaitGroup the owner did not Add before the spawn: that Add races with the
// owner's Wait (Wait may observe the counter at zero and return before the
// goroutine gets scheduled), the classic Add-after-Wait bug.
//
// Held-Add tracking is flow-sensitive via the shared internal/analysis/flow
// engine; cross-function knowledge (which callees Done which WaitGroups,
// which loops terminate) arrives through the facts table, so the check sees
// through helpers in this package and in dependencies alike.
package goleak

import (
	"go/ast"
	"go/types"

	"github.com/svgic/svgic/internal/analysis"
	"github.com/svgic/svgic/internal/analysis/flow"
)

// Analyzer is the goleak check.
var Analyzer = &analysis.Analyzer{
	Name: "goleak",
	Doc: "report goroutines in serving packages that are neither tracked by an owner-waited sync.WaitGroup " +
		"nor terminated by a lifecycle done channel/context, and WaitGroup.Add calls inside the spawned " +
		"function (the Add-after-Wait race)",
	Run: run,
}

const advice = "track it with an owner-waited WaitGroup (Add before the spawn, Done inside, Wait in Close/Shutdown) " +
	"or terminate it with a lifecycle done channel or context"

func run(pass *analysis.Pass) error {
	if !analysis.PkgPathHasSuffix(pass.Pkg.Path(), "engine", "session", "server", "store", "telemetry", "svgicd", "svgicload") {
		return nil
	}
	var prod []*ast.File
	for _, file := range pass.Files {
		if !pass.InTestFile(file.Pos()) {
			prod = append(prod, file)
		}
	}
	c := &checker{
		pass:   pass,
		closed: analysis.ClosedChanClasses(prod, pass.TypesInfo),
		waits:  waitClasses(prod, pass.TypesInfo),
	}
	// The hooks thread the set of WaitGroup classes Add'ed on the current
	// path; the variable is named so nested goroutine bodies can re-enter
	// the same walk with a fresh set.
	var hooks flow.Hooks
	hooks = flow.Hooks{
		Classify: func(call *ast.CallExpr) (string, flow.Op) {
			class, method := analysis.WaitGroupOp(pass.TypesInfo, call)
			switch method {
			case "Add":
				return class, flow.Acquire
			case "Done":
				return class, flow.Release
			}
			return "", flow.None
		},
		OnGo: func(g *ast.GoStmt, held flow.Set) { c.spawn(g, held, hooks) },
	}
	for _, file := range prod {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				flow.Walk(fd.Body, hooks)
			}
		}
	}
	return nil
}

type checker struct {
	pass   *analysis.Pass
	closed map[string]bool // channel classes the package closes
	waits  map[string]bool // WaitGroup classes the package Waits on
}

// spawn judges one `go` statement with the WaitGroup classes Add'ed on the
// owner's path at the spawn point.
func (c *checker) spawn(g *ast.GoStmt, held flow.Set, hooks flow.Hooks) {
	info := c.pass.TypesInfo
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		c.checkLiteral(g, lit, held)
		// The literal's own spawns are judged with the literal's own Adds.
		flow.Walk(lit.Body, hooks)
		return
	}
	fn := analysis.Callee(info, g.Call)
	if fn == nil {
		c.pass.Reportf(g.Pos(), "untracked goroutine: the spawned function value cannot be resolved statically; %s", advice)
		return
	}
	fact := c.pass.Facts.Of(fn)
	if fact.Terminates || c.tracked(fact.WGDone, held) {
		return
	}
	c.pass.Reportf(g.Pos(), "untracked goroutine %s: not WaitGroup-tracked and not lifecycle-terminated; %s", fn.Name(), advice)
}

// checkLiteral judges a `go func(){...}()` body: Done/termination evidence
// makes it lifecycle-bound, and Adds on a WaitGroup the owner did not
// reserve before the spawn are the Add-after-Wait race.
func (c *checker) checkLiteral(g *ast.GoStmt, lit *ast.FuncLit, held flow.Set) {
	info := c.pass.TypesInfo
	tracked := false
	terminates := analysis.TerminatesLifecycle(lit.Body, info, c.closed)
	analysis.SyncCalls(lit.Body, func(call *ast.CallExpr) {
		if class, method := analysis.WaitGroupOp(info, call); class != "" {
			switch method {
			case "Done":
				if held[class] && c.waits[class] {
					tracked = true
				}
			case "Add":
				if !held[class] && wgDeclaredOutside(info, call, lit) {
					c.pass.Reportf(call.Pos(), "sync.WaitGroup.Add inside the spawned goroutine races with the owner's Wait; Add on the owner's path before the go statement")
				}
			}
			return
		}
		fact := c.pass.Facts.Of(analysis.Callee(info, call))
		if fact.Terminates {
			terminates = true
		}
		if c.tracked(fact.WGDone, held) {
			tracked = true
		}
	})
	if !tracked && !terminates {
		c.pass.Reportf(g.Pos(), "untracked goroutine: not WaitGroup-tracked and not lifecycle-terminated; %s", advice)
	}
}

// tracked: some WaitGroup class was Add'ed by the owner before the spawn,
// is Done'd by the spawned code, and is Waited on in this package.
func (c *checker) tracked(done []string, held flow.Set) bool {
	for _, class := range done {
		if held[class] && c.waits[class] {
			return true
		}
	}
	return false
}

// waitClasses scans the package — literals and goroutine bodies included,
// joiners legitimately Wait inside both — for WaitGroup classes Waited on.
func waitClasses(files []*ast.File, info *types.Info) map[string]bool {
	out := make(map[string]bool)
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if class, method := analysis.WaitGroupOp(info, call); method == "Wait" {
					out[class] = true
				}
			}
			return true
		})
	}
	return out
}

// wgDeclaredOutside reports whether the WaitGroup operated on by call is
// declared outside the spawned literal. A WaitGroup created inside the
// goroutine (a local fan-out join the goroutine itself waits on) cannot race
// with an owner's Wait.
func wgDeclaredOutside(info *types.Info, call *ast.CallExpr, lit *ast.FuncLit) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	var obj types.Object
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[x.Sel]
	case *ast.Ident:
		obj = info.Uses[x]
	}
	return obj != nil && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End())
}
