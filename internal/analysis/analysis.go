// Package analysis is the repo's static-analysis framework: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// API surface that svgiclint's checkers are written against.
//
// Six PRs of growth piled up invariants that existed only in comments and
// reviewer memory: solver calls must happen outside session state
// locks, instances must be deep-cloned before a constructor stores them,
// serving paths must thread context.Context, and workload randomness must
// flow from an explicit seed. The analyzer suite under this directory turns
// each of those into a mechanical, CI-gated check (see docs/STATIC_ANALYSIS.md
// for the catalogue).
//
// Why not golang.org/x/tools itself? The repo deliberately has zero
// third-party dependencies, and the build environment cannot fetch any. The
// subset re-implemented here — Analyzer, Pass, Reportf, a package loader, an
// analysistest-style fixture harness and the `go vet -vettool` JSON-config
// protocol — is exactly what the project checkers need; if the module
// ever grows an x/tools dependency, the analyzers port over almost verbatim
// because the API shape is the same.
//
// Cross-package knowledge (which functions transitively reach a solver,
// which locks they take) travels as serialized per-function Facts
// rather than shared ASTs, so the same analyzers run identically in the
// in-process driver, in the analysistest harness, and as separate `go vet`
// compilation units.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check. The suite's analyzers are
// package-level singletons (e.g. locksolve.Analyzer), composed by the
// cmd/svgiclint driver.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description printed by `svgiclint -list`.
	Doc string
	// Run performs the check over one package and reports findings through
	// the pass.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is the accumulated cross-package function-fact table; it always
	// includes the current package's own functions.
	Facts *Facts

	diags *[]Diagnostic
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the runner
	// Chain is the step-by-step evidence for findings that are paths rather
	// than points — lockorder fills it with the acquisition chain, one
	// "from -> to (file.go:line)" entry per edge. Carried into -json output.
	Chain []string
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ReportChain reports a finding whose evidence is a chain of steps. The
// message should already summarize the chain — plain-text output prints only
// the message; the structured chain additionally travels in -json mode.
func (p *Pass) ReportChain(pos token.Pos, chain []string, message string) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  message,
		Analyzer: p.Analyzer.Name,
		Chain:    chain,
	})
}

// InTestFile reports whether pos lies in a _test.go file. Most analyzers
// exempt test files: tests legitimately use context.Background and exercise
// deliberately unexported shapes.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// PkgPathHasSuffix reports whether a package import path ends in one of the
// given path segments ("session" matches both the repo's
// ".../internal/session" and a fixture's "example.com/session"). Analyzers
// scope themselves by suffix so the same check logic runs against the real
// tree and against self-contained testdata packages.
func PkgPathHasSuffix(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// SortDiagnostics orders findings by file position, then message, for stable
// output.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Message < diags[j].Message
	})
}
