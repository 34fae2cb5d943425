// Command benchjson converts `go test -bench` text output into a JSON
// artifact, so benchmark results can be committed and diffed as the repo's
// perf trajectory (BENCH_*.json files) instead of living only in CI logs.
//
//	go test ./internal/session -run '^$' -bench BenchmarkManagerContention | benchjson -o BENCH_sessions.json
//
// Every input line is echoed to stderr, so piping through benchjson keeps
// the human-readable benchmark table in the terminal / CI log. The output
// is deterministic for identical input — no timestamps — so re-running a
// benchmark with unchanged performance produces a byte-identical artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line: name, iteration count and the
// value-per-iteration metrics (ns/op, B/op, allocs/op, custom units). Pkg is
// set only when the input spans more than one package, so single-package
// artifacts stay byte-identical to what earlier versions produced.
type Result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Document is the whole artifact: the run context go test prints before the
// benchmark table, plus every parsed result in input order. With
// single-package input Pkg names it once at the top; when several packages'
// tables are concatenated (e.g. `( go test ./a -bench … ; go test ./b -bench
// … ) | benchjson`), Pkg is left empty and each Result carries its own.
type Document struct {
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (empty = stdout)")
	flag.Parse()

	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in input")
		os.Exit(1)
	}
	payload, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	payload = append(payload, '\n')
	if *out == "" {
		os.Stdout.Write(payload)
		return
	}
	if err := os.WriteFile(*out, payload, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmark(s) to %s\n", len(doc.Benchmarks), *out)
}

func parse(sc *bufio.Scanner) (*Document, error) {
	doc := &Document{}
	pkg := ""      // package of the table currently being read
	multi := false // input spans more than one package
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line) // tee: keep the table human-readable
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			if doc.Pkg == "" {
				doc.Pkg = pkg
			} else if doc.Pkg != pkg {
				multi = true
			}
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			res.Pkg = pkg
			doc.Benchmarks = append(doc.Benchmarks, *res)
		}
	}
	if multi {
		// Per-result attribution replaces the single header field.
		doc.Pkg = ""
	} else {
		for i := range doc.Benchmarks {
			doc.Benchmarks[i].Pkg = ""
		}
	}
	return doc, sc.Err()
}

// parseBenchLine parses one result line of the standard bench format:
//
//	BenchmarkName-P  <iterations>  <value> <unit> [<value> <unit> ...]
func parseBenchLine(line string) (*Result, error) {
	fields := strings.Fields(line)
	// name, iterations, and at least one value-unit pair
	if len(fields) < 4 || len(fields)%2 != 0 {
		return nil, fmt.Errorf("malformed benchmark line: %q", line)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("benchmark line %q: iterations: %w", line, err)
	}
	res := &Result{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64, (len(fields)-2)/2)}
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("benchmark line %q: value %q: %w", line, fields[i], err)
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, nil
}
