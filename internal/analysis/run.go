package analysis

import (
	"go/token"
)

// Run executes the analyzers over one type-checked package and returns the
// surviving diagnostics: findings covered by a justified //lint:ignore
// directive naming the analyzer are filtered out here.
func Run(pkg *Package, facts *Facts, analyzers []*Analyzer) ([]Diagnostic, error) {
	// Directive maps are per file; index them by file name once.
	dirs := make(map[string]map[int]Directive)
	for _, f := range pkg.Files {
		if tf := pkg.Fset.File(f.Pos()); tf != nil {
			dirs[tf.Name()] = DirectivesFor(pkg.Fset, f)
		}
	}
	var out []Diagnostic
	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     facts,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
		for _, d := range diags {
			if suppressed(dirs, pkg.Fset, d.Pos, a.Name) {
				continue
			}
			out = append(out, d)
		}
	}
	SortDiagnostics(pkg.Fset, out)
	return out, nil
}

func suppressed(dirs map[string]map[int]Directive, fset *token.FileSet, pos token.Pos, name string) bool {
	p := fset.Position(pos)
	return SanctionedAt(dirs[p.Filename], p.Line, name)
}
