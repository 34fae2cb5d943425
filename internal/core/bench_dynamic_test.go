package core

import (
	"fmt"
	"testing"

	"github.com/svgic/svgic/internal/graph"
	"github.com/svgic/svgic/internal/stats"
)

// benchDynamicSession builds an n-user dynamic session on a sparse
// small-world graph (degree ≈ 8) with a greedy top-k starting configuration
// — large enough that the difference between the O(1) accumulator and a full
// Evaluate rescan dominates, cheap enough to set up without a solver run.
func benchDynamicSession(tb testing.TB, n, m, k int) *DynamicSession {
	tb.Helper()
	r := stats.NewRand(uint64(n))
	g := graph.WattsStrogatz(n, 8, 0.1, r)
	in := NewInstance(g, m, k, 0.5)
	for u := 0; u < n; u++ {
		for c := 0; c < m; c++ {
			in.SetPref(u, c, r.Float64())
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			for c := 0; c < m; c++ {
				if r.Float64() < 0.3 {
					must(in.SetTau(u, v, c, 0.6*r.Float64()))
				}
			}
		}
	}
	conf := NewConfiguration(n, k)
	for u := 0; u < n; u++ {
		taken := make([]bool, m)
		for s := 0; s < k; s++ {
			best, bestVal := -1, -1.0
			for c := 0; c < m; c++ {
				if !taken[c] && in.Pref[u][c] > bestVal {
					best, bestVal = c, in.Pref[u][c]
				}
			}
			taken[best] = true
			conf.Assign[u][s] = best
		}
	}
	ds, err := NewDynamicSession(in, conf, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

var benchValueSink float64

// BenchmarkDynamicEvent measures per-event cost on the dynamic hot path.
//
//   - incremental and fullEvaluate apply one updatePreference event, then
//     read the session value. incremental reads the maintained accumulator
//     (what the serving path does); fullEvaluate recomputes the objective
//     with a full Evaluate rescan after every event (what the serving path
//     did before the accumulator existed).
//   - join admits one user with 3 friends and ties in both directions. Each
//     op grows the session, so it restarts from its n-user base every 256
//     joins, outside the timer.
//   - rebalance runs a 2-pass rebalance over every active user.
func BenchmarkDynamicEvent(b *testing.B) {
	const m, k = 50, 3
	for _, n := range []int{1000, 10000} {
		base := benchDynamicSession(b, n, m, k)
		b.Run(fmt.Sprintf("join/users=%d", n), func(b *testing.B) {
			r := stats.NewRand(uint64(n) + 2)
			ds := restartSession(b, base)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%256 == 0 {
					b.StopTimer()
					ds = restartSession(b, base)
					b.StartTimer()
				}
				pref := make([]float64, m)
				tie := make([]float64, m)
				for c := range pref {
					pref[c] = r.Float64()
					tie[c] = 0.3 * r.Float64()
				}
				friends := FriendTies{}
				for len(friends) < 3 {
					friends[r.IntN(n)] = FriendTie{Out: tie, In: tie}
				}
				if _, err := ds.Join(pref, friends); err != nil {
					b.Fatal(err)
				}
			}
		})
		if n == 1000 {
			b.Run(fmt.Sprintf("rebalance/users=%d", n), func(b *testing.B) {
				ds := restartSession(b, base)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchValueSink = ds.Rebalance(2)
				}
			})
		}
		ds := base
		r := stats.NewRand(uint64(n) + 1)
		prefs := make([][]float64, 16)
		for i := range prefs {
			prefs[i] = make([]float64, m)
			for c := range prefs[i] {
				prefs[i][c] = r.Float64()
			}
		}
		b.Run(fmt.Sprintf("incremental/users=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ds.UpdatePreference(i%n, prefs[i%len(prefs)]); err != nil {
					b.Fatal(err)
				}
				benchValueSink = ds.Value()
			}
		})
		b.Run(fmt.Sprintf("fullEvaluate/users=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ds.UpdatePreference(i%n, prefs[i%len(prefs)]); err != nil {
					b.Fatal(err)
				}
				benchValueSink = Evaluate(ds.Instance(), ds.Config()).Weighted()
			}
		})
	}
}

// restartSession returns a fresh session over a copy of base's instance and
// configuration.
func restartSession(tb testing.TB, base *DynamicSession) *DynamicSession {
	tb.Helper()
	ds, err := NewDynamicSession(base.Instance(), base.Config(), base.SizeCap())
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}
