package session

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/engine"
)

// BenchmarkManagerContention measures serving-path contention on the
// session table: W concurrent workers hammering snapshot reads, each of
// which takes the table lock for one map lookup and then the session's own
// lock. GOMAXPROCS is raised to the worker count for the duration of each
// sub-benchmark: RunParallel spawns GOMAXPROCS goroutines, and the lock
// convoy under measurement only exists when that many OS threads can
// actually interleave — without this, a 1-CPU CI runner would silently
// serialize the workers and measure nothing.
func BenchmarkManagerContention(b *testing.B) {
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(workers)
			defer runtime.GOMAXPROCS(prev)
			m, err := NewManager(Options{Engine: eng, MaxSessions: 4096})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			const nSessions = 128
			ids := make([]string, nSessions)
			for i := range ids {
				snap, _, err := m.CreateWith(context.Background(), testInstance(uint64(i%8)), CreateSpec{})
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = snap.ID
			}
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Distinct stride origin per worker, so workers walk the
				// session pool out of phase instead of in lockstep on the
				// same session.
				i := int(seq.Add(1)) * 31
				for pb.Next() {
					i++
					if _, err := m.Snapshot(ids[i%nSessions]); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkRepairCycle measures one drift-repair cycle on a 1000-user
// session of 40 independent 25-user subgroups after a single preference
// event. The delta mode is the default pipeline: re-solve only the one dirty
// component and overlay it, warm-started from the incumbent. The full mode
// backs the session with a solver stripped of ComponentSafe and WarmStarter
// (engine.Uncached), so every cycle re-solves the whole 1000-user instance
// cold, on one worker — the pre-incremental repair. The engine cache is
// disabled so each cycle pays for its solves; RepairMargin -1 makes every
// cycle a swap, keeping the two modes on the same code path every iteration
// instead of diverging into keeps.
func BenchmarkRepairCycle(b *testing.B) {
	in := datasets.MultiGroup(7, 40, 25, 30, 2, 0.5)
	prefs := make([][]float64, 2)
	for i := range prefs {
		prefs[i] = make([]float64, in.NumItems)
		for c := range prefs[i] {
			prefs[i][c] = float64((i+c)%7) / 7
		}
	}
	for _, mode := range []struct {
		name string
		spec CreateSpec
	}{
		{name: "delta"},
		{name: "full", spec: CreateSpec{Solver: engine.Uncached{S: &core.AVGDSolver{}}}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng := engine.New(engine.Options{Workers: 2, CacheSize: -1})
			defer eng.Close()
			m, err := NewManager(Options{Engine: eng, RepairMargin: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			ctx := context.Background()
			snap, _, err := m.CreateWith(ctx, in, mode.spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := Event{Type: EventUpdatePreference, User: i % 25, Pref: prefs[i%2]}
				if _, err := m.Apply(snap.ID, []Event{ev}); err != nil {
					b.Fatal(err)
				}
				m.RepairAll(ctx)
			}
		})
	}
}
