package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/eval"
)

// engineDemo exercises the concurrent batch engine: it builds a batch of
// multi-component instances (several independent shopping groups folded into
// one social network each), solves the batch at increasing worker counts,
// verifies every run returns the deterministic AVG-D objective, and reports
// throughput, latency and the effect of the result cache on a repeated batch.
func engineDemo(workers int, quick bool, seed uint64) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batchSize, blocks, blockN, items, k := 24, 6, 8, 40, 4
	if quick {
		batchSize, blocks = 8, 4
	}
	ins := make([]*core.Instance, batchSize)
	for i := range ins {
		ins[i] = datasets.MultiGroup(seed+uint64(i), blocks, blockN, items, k, 0.5)
	}

	// Reference objectives from the serial library call.
	want := make([]float64, batchSize)
	for i, in := range ins {
		conf, _, err := core.SolveAVGD(in, core.AVGDOptions{})
		if err != nil {
			return err
		}
		want[i] = core.Evaluate(in, conf).Weighted()
	}

	tab := &eval.Table{
		Title:   fmt.Sprintf("Engine batch throughput (%d instances × %d components)", batchSize, blocks),
		Columns: []string{"workers", "wall ms", "inst/s", "components", "avg latency ms", "cache hits"},
	}
	ctx := context.Background()
	for _, w := range workerSweep(workers) {
		e := engine.New(engine.Options{Workers: w, CacheSize: -1})
		start := time.Now()
		sols, err := e.SolveBatch(ctx, ins)
		wall := time.Since(start)
		if err != nil {
			e.Close()
			return err
		}
		for i, sol := range sols {
			got := sol.Report.Weighted()
			if math.Abs(got-want[i]) > 1e-9 {
				e.Close()
				return fmt.Errorf("engine diverged from SolveAVGD on instance %d: %.12f vs %.12f", i, got, want[i])
			}
		}
		st := e.Stats()
		e.Close()
		tab.Addf(fmt.Sprintf("%d", w), wall.Milliseconds(),
			fmt.Sprintf("%.1f", float64(batchSize)/wall.Seconds()),
			int(st.ComponentsSolved),
			fmt.Sprintf("%.2f", st.AvgLatencyMS),
			int(st.CacheHits))
	}

	// Cache pass: the same batch twice through one cached engine — the second
	// pass must be answered from the LRU without touching the pool.
	e := engine.New(engine.Options{Workers: workers, CacheSize: 2 * batchSize})
	defer e.Close()
	if _, err := e.SolveBatch(ctx, ins); err != nil {
		return err
	}
	warm := e.Stats() // snapshot after the priming pass
	start := time.Now()
	if _, err := e.SolveBatch(ctx, ins); err != nil {
		return err
	}
	wall := time.Since(start)
	st := e.Stats()
	// Second-pass deltas only: a fully cached pass solves 0 components and
	// has no solver latency.
	tab.Addf(fmt.Sprintf("%d (cached repeat)", workers), wall.Milliseconds(),
		fmt.Sprintf("%.1f", float64(batchSize)/wall.Seconds()),
		int(st.ComponentsSolved-warm.ComponentsSolved),
		fmt.Sprintf("%.2f", float64((st.TotalLatency-warm.TotalLatency).Microseconds())/1000),
		int(st.CacheHits-warm.CacheHits))

	tab.Fprint(os.Stdout)
	return nil
}

// workerSweep returns the worker counts to demo: powers of two up to max,
// always including 1 and max.
func workerSweep(max int) []int {
	ws := []int{1}
	for w := 2; w < max; w *= 2 {
		ws = append(ws, w)
	}
	if max > 1 {
		ws = append(ws, max)
	}
	return ws
}
