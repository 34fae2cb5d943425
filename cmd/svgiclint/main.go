// Command svgiclint is the project's static-analysis driver: a multichecker
// for the invariant analyzers under internal/analysis (locksolve, lockorder,
// goleak, cloneescape, ctxthread, seedrand).
//
// It runs two ways:
//
//	svgiclint [-json] [dir]             # standalone: analyze the whole module
//	go vet -vettool=$(pwd)/bin/svgiclint ./...   # vet mode: per-unit, test files included
//
// The vet mode is the canonical `make lint` path — `go vet` hands the tool
// test compilation units too, so _test.go files are checked like any other.
// Findings print as file:line:col: [analyzer] message and exit nonzero;
// -json switches the standalone mode to one machine-readable JSON array of
// diagnostics on stdout for CI and editors.
package main

import (
	"fmt"
	"os"
	"strings"

	"github.com/svgic/svgic/internal/analysis"
	"github.com/svgic/svgic/internal/analysis/cloneescape"
	"github.com/svgic/svgic/internal/analysis/ctxthread"
	"github.com/svgic/svgic/internal/analysis/goleak"
	"github.com/svgic/svgic/internal/analysis/lockorder"
	"github.com/svgic/svgic/internal/analysis/locksolve"
	"github.com/svgic/svgic/internal/analysis/seedrand"
)

// version is what `svgiclint -V=full` reports; `go vet` hashes this line into
// its action cache, so bump it when analyzer behavior changes. v2 is the
// concurrency suite: lockorder + goleak, and facts carrying lock classes;
// v3 drops the deprecation check and the fact field it read.
const version = "v3.0.0"

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		cloneescape.Analyzer,
		ctxthread.Analyzer,
		goleak.Analyzer,
		lockorder.Analyzer,
		locksolve.Analyzer,
		seedrand.Analyzer,
	}
}

func main() {
	args := os.Args[1:]
	for _, arg := range args {
		switch arg {
		case "-V=full", "--V=full", "-V":
			// The go command probes vet tools with -V=full and expects
			// "<basename> version <version>".
			fmt.Printf("svgiclint version %s\n", version)
			return
		case "-flags", "--flags":
			// The go command asks a vettool which flags it supports; this one
			// deliberately has none — per-finding //lint:ignore directives are
			// the only sanctioned suppression mechanism, not flag-level
			// disables.
			fmt.Println("[]")
			return
		case "-list", "--list":
			for _, a := range analyzers() {
				fmt.Printf("%-12s %s\n", a.Name, a.Doc)
			}
			return
		case "-h", "-help", "--help":
			usage()
			return
		}
	}

	// Vet mode: the go command invokes the tool with a JSON config file as
	// the last argument.
	if len(args) > 0 && strings.HasSuffix(args[len(args)-1], ".cfg") {
		os.Exit(unitcheck(args[len(args)-1], analyzers()))
	}

	jsonOut := false
	if len(args) > 0 && (args[0] == "-json" || args[0] == "--json") {
		jsonOut = true
		args = args[1:]
	}
	dir := "."
	if len(args) > 0 {
		dir = args[0]
	}
	os.Exit(standalone(dir, analyzers(), jsonOut))
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  svgiclint [-json] [dir]   analyze every package of the module rooted at dir
  svgiclint -list           print the analyzers and the invariants they enforce
  go vet -vettool=/path/to/svgiclint ./...
`)
}

// standalone loads the module from source and runs every analyzer over every
// package, in dependency order so facts are always available.
func standalone(dir string, suite []*analysis.Analyzer, jsonOut bool) int {
	pkgs, loader, err := analysis.LoadModule(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svgiclint: %v\n", err)
		return 1
	}
	exit := 0
	var found []jsonDiag
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, loader.Facts, suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svgiclint: %s: %v\n", pkg.Path, err)
			return 1
		}
		for _, d := range diags {
			exit = 1
			if jsonOut {
				found = append(found, newJSONDiag(pkg.Fset, d))
				continue
			}
			fmt.Printf("%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if jsonOut {
		if err := writeJSONDiags(os.Stdout, found); err != nil {
			fmt.Fprintf(os.Stderr, "svgiclint: %v\n", err)
			return 1
		}
	}
	return exit
}
