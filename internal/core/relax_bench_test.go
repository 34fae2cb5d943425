package core_test

import (
	"testing"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/lp"
	"github.com/svgic/svgic/internal/utility"
)

// relaxBenchGroups is the number of shopping groups one benchmark op solves.
const relaxBenchGroups = 40

// relaxBenchComponents builds relaxBenchGroups groups with perfbench's
// cold-solve shape rule (n 8–24, m 30–50, k 3–5, λ = 0.5, every 4th group
// three blocks of 8 folded into one instance) and returns their connected
// components, which is what the engine hands the LP.
func relaxBenchComponents(b *testing.B) []*core.Instance {
	b.Helper()
	var comps []*core.Instance
	for i := 0; i < relaxBenchGroups; i++ {
		m := 30 + i*8%21
		k := 3 + i/3%3
		s := uint64(1000 + i)
		var in *core.Instance
		if i%4 == 3 {
			in = datasets.MultiGroup(s, 3, 8, m, k, 0.5)
		} else {
			var err error
			n := 8 + i*5%17
			if in, err = datasets.Generate(datasets.All()[i%3], n, m, k, 0.5, utility.PIERT, s); err != nil {
				b.Fatal(err)
			}
		}
		subs, _ := core.ComponentDecompose(in)
		comps = append(comps, subs...)
	}
	return comps
}

// BenchmarkSolveRelaxation is the LP layer's own tracked benchmark
// (BENCH_lp.json, `make bench-lp`): one op solves the structured LP_SIMP
// relaxation of every component of 40 cold-solve-shaped groups with the
// default options svgicd runs.
func BenchmarkSolveRelaxation(b *testing.B) {
	comps := relaxBenchComponents(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range comps {
			if _, err := core.SolveRelaxation(in, core.LPStructured, lp.RelaxOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(comps)), "components/op")
}
