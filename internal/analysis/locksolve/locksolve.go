// Package locksolve enforces the repo's "solve outside the lock" rule: no
// solver entry point (Solve/Solve*) and no Persister durability hook may be
// reachable — directly or through a helper, in this package or another — while
// a session or session-manager state mutex is held.
//
// The project's lock-naming convention scopes the check: state mutexes are
// fields or variables named exactly `mu` (Session.mu, Manager.mu). Coordination
// locks with descriptive names (outMu, algoMu, encMu, idMu) deliberately do
// not count — draining an outbox under outMu is the designed pattern, solving
// under s.mu is the deadlock-and-latency bug this analyzer exists to stop.
//
// The control-flow semantics (branch copies, deferred-unlock tracking, IIFE
// lock scoping) live in the shared internal/analysis/flow engine; this
// analyzer contributes only the lock classifier and the held-call check.
package locksolve

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"github.com/svgic/svgic/internal/analysis"
	"github.com/svgic/svgic/internal/analysis/flow"
)

// Analyzer is the locksolve check.
var Analyzer = &analysis.Analyzer{
	Name: "locksolve",
	Doc: "report solver or persistence calls reachable while a session or manager state mutex (a `mu`-named sync lock) is held; " +
		"snapshot under the lock, solve outside it, re-validate on re-lock",
	Run: run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	hooks := flow.Hooks{
		Classify: c.lockOp,
		OnCall:   c.checkCall,
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			flow.Walk(fd.Body, hooks)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// lockOp classifies a call as a state-lock operation: ("s.mu", flow.Acquire)
// for s.mu.Lock()/s.mu.RLock(), ("s.mu", flow.Release) for the releases,
// ("", flow.None) otherwise. Only sync package lock methods on a `mu`-named
// field or variable count.
func (c *checker) lockOp(call *ast.CallExpr) (string, flow.Op) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", flow.None
	}
	var op flow.Op
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = flow.Acquire
	case "Unlock", "RUnlock":
		op = flow.Release
	default:
		return "", flow.None
	}
	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", flow.None
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		if x.Name != "mu" {
			return "", flow.None
		}
	case *ast.SelectorExpr:
		if x.Sel.Name != "mu" {
			return "", flow.None
		}
	default:
		return "", flow.None
	}
	return types.ExprString(sel.X), op
}

func (c *checker) checkCall(call *ast.CallExpr, held flow.Set) {
	if len(held) == 0 {
		return
	}
	name := analysis.CalleeName(call)
	fact := c.pass.Facts.Of(analysis.Callee(c.pass.TypesInfo, call))
	switch {
	case analysis.SolveName(name):
		c.pass.Reportf(call.Pos(), "solver call %s while %s is held; solve outside the lock", name, heldDesc(held))
	case analysis.PersistNames[name]:
		c.pass.Reportf(call.Pos(), "persistence call %s while %s is held; enqueue after unlocking", name, heldDesc(held))
	case fact.Solvy:
		c.pass.Reportf(call.Pos(), "call to %s reaches a solver while %s is held; solve outside the lock", name, heldDesc(held))
	case fact.Persisty:
		c.pass.Reportf(call.Pos(), "call to %s reaches a persistence hook while %s is held; enqueue after unlocking", name, heldDesc(held))
	}
}

func heldDesc(held flow.Set) string {
	keys := held.Keys()
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
