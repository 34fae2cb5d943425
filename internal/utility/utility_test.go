package utility

import (
	"math"
	"testing"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/graph"
	"github.com/svgic/svgic/internal/stats"
)

func populate(t *testing.T, model ModelKind, seed uint64) *core.Instance {
	t.Helper()
	g := graph.HolmeKim(24, 3, 0.3, stats.NewRand(seed))
	in := core.NewInstance(g, 40, 4, 0.5)
	p := Defaults()
	p.Model = model
	Populate(in, p, seed)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPopulateRanges(t *testing.T) {
	in := populate(t, PIERT, 3)
	var anyPref, anyTau bool
	for u := 0; u < in.NumUsers(); u++ {
		for c := 0; c < in.NumItems; c++ {
			p := in.Pref[u][c]
			if p < 0 || p > 1 {
				t.Fatalf("p(%d,%d) = %v out of [0,1]", u, c, p)
			}
			if p > 0 {
				anyPref = true
			}
		}
		for _, v := range in.G.Out(u) {
			for c := 0; c < in.NumItems; c++ {
				tau := in.Tau(u, v, c)
				if tau < 0 || tau > 1 {
					t.Fatalf("τ(%d,%d,%d) = %v out of [0,1]", u, v, c, tau)
				}
				if tau > 0 {
					anyTau = true
				}
			}
		}
	}
	if !anyPref || !anyTau {
		t.Fatalf("degenerate utilities: pref=%v tau=%v", anyPref, anyTau)
	}
}

func TestPopulateDeterministic(t *testing.T) {
	a := populate(t, PIERT, 7)
	b := populate(t, PIERT, 7)
	for u := range a.Pref {
		for c := range a.Pref[u] {
			if a.Pref[u][c] != b.Pref[u][c] {
				t.Fatal("same seed produced different preferences")
			}
		}
	}
	c := populate(t, PIERT, 8)
	diff := false
	for u := range a.Pref {
		for i := range a.Pref[u] {
			if a.Pref[u][i] != c.Pref[u][i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical preferences")
	}
}

// tauSpread returns the coefficient of variation of τ across a user's
// friends, averaged over users and items with any social utility.
func tauSpread(in *core.Instance) float64 {
	var total float64
	var count int
	for u := 0; u < in.NumUsers(); u++ {
		out := in.G.Out(u)
		if len(out) < 2 {
			continue
		}
		for c := 0; c < in.NumItems; c++ {
			var vals []float64
			for _, v := range out {
				vals = append(vals, in.Tau(u, v, c))
			}
			m := stats.Mean(vals)
			if m <= 0 {
				continue
			}
			total += stats.StdDev(vals) / m
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

func TestModelsDiffer(t *testing.T) {
	piert := populate(t, PIERT, 5)
	agree := populate(t, AGREE, 5)
	gree := populate(t, GREE, 5)
	// AGREE's uniform influence yields a lower per-friend spread than PIERT's
	// similarity-driven influence; GREE's per-triple noise yields the highest.
	sAgree, sPiert, sGree := tauSpread(agree), tauSpread(piert), tauSpread(gree)
	if !(sAgree < sPiert && sPiert < sGree) {
		t.Errorf("τ spread ordering violated: AGREE %.3f, PIERT %.3f, GREE %.3f", sAgree, sPiert, sGree)
	}
}

func TestCommunityMixAlignsFriends(t *testing.T) {
	// With a high community mix, a user's preference correlation with
	// friends exceeds their correlation with non-friends.
	g := graph.HolmeKim(30, 3, 0.5, stats.NewRand(2))
	in := core.NewInstance(g, 60, 4, 0.5)
	p := Defaults()
	p.CommunityMix = 0.8
	Populate(in, p, 2)
	var friendSim, strangerSim float64
	var fc, sc int
	for u := 0; u < in.NumUsers(); u++ {
		for v := u + 1; v < in.NumUsers(); v++ {
			s := stats.Pearson(in.Pref[u], in.Pref[v])
			if in.G.Connected(u, v) {
				friendSim += s
				fc++
			} else {
				strangerSim += s
				sc++
			}
		}
	}
	if fc == 0 || sc == 0 {
		t.Skip("degenerate graph")
	}
	if friendSim/float64(fc) <= strangerSim/float64(sc) {
		t.Errorf("friends (%.3f) are not more preference-similar than strangers (%.3f)",
			friendSim/float64(fc), strangerSim/float64(sc))
	}
}

func TestModelKindString(t *testing.T) {
	if PIERT.String() != "PIERT" || AGREE.String() != "AGREE" || GREE.String() != "GREE" {
		t.Error("ModelKind.String misbehaves")
	}
}

func TestPopulateZeroNoise(t *testing.T) {
	g := graph.Complete(4)
	in := core.NewInstance(g, 10, 2, 0.5)
	p := Defaults()
	p.Noise = 0
	Populate(in, p, 1)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAffinityScale(t *testing.T) {
	// Mean preference should sit in a sensible band (not all ≈0 or ≈1), so
	// the λ trade-off stays meaningful.
	in := populate(t, PIERT, 11)
	var sum float64
	var count int
	for u := range in.Pref {
		for _, p := range in.Pref[u] {
			sum += p
			count++
		}
	}
	mean := sum / float64(count)
	if mean < 0.05 || mean > 0.9 {
		t.Errorf("mean preference %v outside (0.05, 0.9)", mean)
	}
	_ = math.Pi // keep math import if assertions change
}
