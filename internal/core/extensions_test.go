package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/svgic/svgic/internal/graph"
	"github.com/svgic/svgic/internal/stats"
)

func TestWeightedInstanceScalesUtilities(t *testing.T) {
	in := buildPaperExample(0.5)
	w := []float64{2, 1, 1, 1, 0.5}
	wi := WeightedInstance(in, w)
	if wi.Pref[0][0] != 2*in.Pref[0][0] {
		t.Errorf("pref not scaled: %v", wi.Pref[0][0])
	}
	if got, want := wi.Tau(0, 1, 4), 0.5*in.Tau(0, 1, 4); math.Abs(got-want) > 1e-12 {
		t.Errorf("τ not scaled: %v want %v", got, want)
	}
	// Objectives scale consistently: evaluating the same config on the
	// weighted instance equals the item-weighted objective.
	conf := configFromRows([][]int{
		{4, 0, 1}, {1, 0, 3}, {4, 2, 3}, {4, 0, 3},
	})
	if err := conf.Validate(wi); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeSlotOrderMaximizesGamma(t *testing.T) {
	in := buildPaperExample(0.5)
	conf := configFromRows([][]int{
		{4, 0, 1}, {1, 0, 3}, {4, 2, 3}, {4, 0, 3},
	})
	gamma := []float64{3, 1, 2}
	out := OptimizeSlotOrder(in, conf, gamma)
	if err := out.Validate(in); err != nil {
		t.Fatal(err)
	}
	// The unweighted objective is invariant under global slot permutation.
	if math.Abs(Evaluate(in, out).Weighted()-Evaluate(in, conf).Weighted()) > 1e-9 {
		t.Error("slot permutation changed the plain objective")
	}
	got := EvaluateWithSlotWeights(in, out, gamma)
	// Exhaustively check all 6 permutations for the true optimum.
	best := 0.0
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		permuted := NewConfiguration(4, 3)
		for u := range conf.Assign {
			for s := range p {
				permuted.Assign[u][p[s]] = conf.Assign[u][s]
			}
		}
		if v := EvaluateWithSlotWeights(in, permuted, gamma); v > best {
			best = v
		}
	}
	if math.Abs(got-best) > 1e-9 {
		t.Errorf("slot reordering achieved %v, optimum is %v", got, best)
	}
}

func TestGreedyMVDInvariants(t *testing.T) {
	in := randomInstance(21, 8, 12, 3, 0.5)
	base, _, err := SolveAVGD(in, AVGDOptions{R: 1})
	if err != nil {
		t.Fatal(err)
	}
	const beta = 3
	mv := GreedyMVD(in, base, beta)
	for u := range mv.Views {
		seen := map[int]bool{}
		for s := range mv.Views[u] {
			views := mv.Views[u][s]
			if len(views) == 0 || len(views) > beta {
				t.Fatalf("user %d slot %d has %d views", u, s, len(views))
			}
			if views[0] != base.Assign[u][s] {
				t.Fatalf("primary view replaced at (%d,%d)", u, s)
			}
			for _, it := range views {
				if seen[it] {
					t.Fatalf("user %d sees item %d in multiple views", u, it)
				}
				seen[it] = true
			}
		}
	}
	// Extra views can only add utility.
	if EvaluateMVD(in, mv).Weighted() < Evaluate(in, base).Weighted()-1e-9 {
		t.Error("MVD decreased the objective")
	}
}

func TestStabilizeSubgroupsNeverWorse(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		in := randomInstance(seed, 8, 10, 4, 0.5)
		conf, _, err := SolveAVG(in, AVGOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		before := SubgroupEditDistance(in, conf)
		stable, after := StabilizeSubgroups(in, conf)
		if err := stable.Validate(in); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if after > before {
			t.Errorf("seed %d: edit distance rose %d -> %d", seed, before, after)
		}
		if math.Abs(Evaluate(in, stable).Weighted()-Evaluate(in, conf).Weighted()) > 1e-9 {
			t.Errorf("seed %d: stabilization changed the objective", seed)
		}
	}
}

func TestMaxAssignmentAgainstBruteForce(t *testing.T) {
	r := stats.NewRand(17)
	for trial := 0; trial < 60; trial++ {
		k := 1 + r.IntN(3)
		m := k + r.IntN(3)
		gain := make([][]float64, k)
		for s := range gain {
			gain[s] = make([]float64, m)
			for c := range gain[s] {
				gain[s][c] = math.Round(r.Float64()*100) / 10
			}
		}
		_, got := MaxAssignment(gain)
		want := bruteMaxAssignment(gain, 0, make([]bool, m))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: MaxAssignment %.4f, brute force %.4f (gain %v)", trial, got, want, gain)
		}
	}
}

func bruteMaxAssignment(gain [][]float64, row int, used []bool) float64 {
	if row == len(gain) {
		return 0
	}
	best := math.Inf(-1)
	for c := range gain[row] {
		if used[c] {
			continue
		}
		used[c] = true
		if v := gain[row][c] + bruteMaxAssignment(gain, row+1, used); v > best {
			best = v
		}
		used[c] = false
	}
	return best
}

func TestMaxAssignmentEdgeCases(t *testing.T) {
	if a, v := MaxAssignment(nil); a != nil || v != 0 {
		t.Error("empty assignment mishandled")
	}
	if a, _ := MaxAssignment([][]float64{{1}, {1}}); a != nil {
		t.Error("m < k accepted")
	}
}

func TestBestResponseImprovesGlobalObjective(t *testing.T) {
	err := quick.Check(func(seed uint16) bool {
		in := randomInstance(uint64(seed), 6, 8, 2, 0.5)
		conf, _, err := SolveAVG(in, AVGOptions{Seed: uint64(seed)})
		if err != nil {
			return false
		}
		before := Evaluate(in, conf).Weighted()
		gain := BestResponse(in, conf, 0, 0)
		after := Evaluate(in, conf).Weighted()
		if gain < 0 {
			return false
		}
		// The reported gain is the exact global-objective delta.
		if math.Abs((after-before)-gain) > 1e-9 {
			return false
		}
		return conf.Validate(in) == nil
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestBestResponseRespectsCap(t *testing.T) {
	// 3 users, 2 items, 1 slot, cap 2: user 2's best response may not join a
	// full subgroup.
	g := graph.Complete(3)
	in := NewInstance(g, 2, 1, 0.5)
	for u := 0; u < 3; u++ {
		in.SetPref(u, 0, 1)
		in.SetPref(u, 1, 0.1)
	}
	conf := configFromRows([][]int{{0}, {0}, {1}})
	BestResponse(in, conf, 2, 2)
	if conf.Assign[2][0] == 0 {
		t.Error("best response violated the size cap")
	}
}

func TestDynamicSessionLifecycle(t *testing.T) {
	in := randomInstance(41, 8, 12, 3, 0.5)
	conf, _, err := SolveAVGD(in, AVGDOptions{R: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDynamicSession(in, conf, 0)
	if err != nil {
		t.Fatal(err)
	}
	v0 := ds.Value()
	if len(ds.ActiveUsers()) != 8 {
		t.Fatalf("active users = %d", len(ds.ActiveUsers()))
	}

	pref := make([]float64, 12)
	for c := range pref {
		pref[c] = float64(c%3) / 3
	}
	tauOut := make([]float64, 12)
	for c := range tauOut {
		tauOut[c] = 0.2
	}
	id, err := ds.Join(pref, FriendTies{
		0: {Out: tauOut, In: tauOut},
		1: {Out: tauOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id != 8 || len(ds.ActiveUsers()) != 9 {
		t.Fatalf("join: id=%d active=%d", id, len(ds.ActiveUsers()))
	}
	if err := ds.Config().Validate(ds.Instance()); err != nil {
		t.Fatalf("after join: %v", err)
	}
	if ds.Value() <= v0-1e-9 {
		t.Errorf("value decreased after join: %v -> %v", v0, ds.Value())
	}

	if err := ds.Leave(2); err != nil {
		t.Fatal(err)
	}
	if err := ds.Leave(2); err == nil {
		t.Error("double leave accepted")
	}
	if len(ds.ActiveUsers()) != 8 {
		t.Errorf("active after leave = %d", len(ds.ActiveUsers()))
	}
	if err := ds.Config().Validate(ds.Instance()); err != nil {
		t.Fatalf("after leave: %v", err)
	}

	if improved := ds.Rebalance(3); improved < 0 {
		t.Errorf("rebalance reported negative improvement %v", improved)
	}
	// A second rebalance from the fixed point must be a no-op.
	if again := ds.Rebalance(3); again > 1e-9 {
		t.Errorf("rebalance is not idempotent: second pass improved %v", again)
	}
}

func TestDynamicSessionBadInputs(t *testing.T) {
	in := randomInstance(43, 4, 6, 2, 0.5)
	conf, _, err := SolveAVGD(in, AVGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDynamicSession(in, conf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Join([]float64{1}, nil); err == nil {
		t.Error("short preference vector accepted")
	}
	if _, err := ds.Join(make([]float64, 6), FriendTies{99: {}}); err == nil {
		t.Error("out-of-range friend accepted")
	}
	if err := ds.Leave(99); err == nil {
		t.Error("leaving an unknown user accepted")
	}
	if _, err := NewDynamicSession(in, NewConfiguration(4, 2), 0); err == nil {
		t.Error("invalid starting configuration accepted")
	}
}

func TestSubInstanceRoundTrip(t *testing.T) {
	in := buildPaperExample(0.5)
	sub, orig, err := SubInstance(in, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumUsers() != 2 || orig[0] != 1 || orig[1] != 3 {
		t.Fatalf("sub users/orig = %d/%v", sub.NumUsers(), orig)
	}
	// Bob(1) and Dave(3) are not adjacent in the example.
	if sub.G.NumEdges() != 0 {
		t.Errorf("sub edges = %d, want 0", sub.G.NumEdges())
	}
	if sub.Pref[0][1] != in.Pref[1][1] {
		t.Error("preferences not carried over")
	}
	sub2, orig2, err := SubInstance(in, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sub2.Tau(0, 1, 4), in.Tau(0, 2, 4); got != want {
		t.Errorf("τ not carried: %v want %v", got, want)
	}
	// Merge: two 2-user parts reassemble into a full configuration.
	pa := configFromRows([][]int{{0, 1, 2}, {0, 1, 2}})
	pb := configFromRows([][]int{{2, 3, 4}, {2, 3, 4}})
	merged := MergeConfigurations(4, 3, []*Configuration{pa, pb}, [][]int{orig, orig2})
	if err := merged.Validate(in); err != nil {
		t.Fatal(err)
	}
	if merged.Assign[1][0] != 0 || merged.Assign[0][0] != 2 {
		t.Errorf("merge misplaced rows: %v", merged.Assign)
	}
}

func TestSolverAdapters(t *testing.T) {
	in := buildPaperExample(0.5)
	ctx := context.Background()
	avg := &AVGSolver{Opts: AVGOptions{Seed: 1}}
	if avg.Name() != "AVG" {
		t.Error("AVG name")
	}
	avgSol, err := avg.Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if avgSol.Rounding == nil || avgSol.Rounding.LPObjective <= 0 {
		t.Error("AVG solution carries no LP/rounding stats")
	}
	if avgSol.Algorithm != "AVG" || avgSol.Wall <= 0 || avgSol.Components != 1 {
		t.Errorf("AVG solution provenance = %+v", avgSol)
	}
	avgd := &AVGDSolver{}
	if avgd.Name() != "AVG-D" {
		t.Error("AVG-D name")
	}
	sol, err := avgd.Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Config.Validate(in); err != nil {
		t.Fatal(err)
	}
	if got, want := sol.Report.Weighted(), Evaluate(in, sol.Config).Weighted(); got != want {
		t.Errorf("solution report %.12f != fresh evaluation %.12f", got, want)
	}
	// Pre-canceled context: prompt ctx.Err() without touching the pipeline.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := avgd.Solve(canceled, in); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled Solve: err = %v, want context.Canceled", err)
	}
}

func TestAVGDSlotWeightsSteerValue(t *testing.T) {
	// With slot 0 ten times more significant, γ-aware construction is a
	// heuristic (the greedy interleaving can occasionally lose to the plain
	// run), so the check is statistical: after the free optimal reordering
	// of both results, γ-aware must win or tie on most seeds and never lose
	// by more than a few percent.
	wins, total := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		in := randomInstance(seed, 8, 10, 3, 0.5)
		f, err := SolveRelaxation(in, LPStructured, defaultTestLP())
		if err != nil {
			t.Fatal(err)
		}
		gamma := []float64{10, 1, 1}
		plain, _ := RoundAVGD(in, f, AVGDOptions{R: 1})
		aware, _ := RoundAVGD(in, f, AVGDOptions{R: 1, SlotWeights: gamma})
		if err := aware.Validate(in); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pw := EvaluateWithSlotWeights(in, OptimizeSlotOrder(in, plain, gamma), gamma)
		aw := EvaluateWithSlotWeights(in, OptimizeSlotOrder(in, aware, gamma), gamma)
		total++
		if aw >= pw-1e-9 {
			wins++
		}
		if aw < 0.95*pw {
			t.Errorf("seed %d: γ-aware %.4f more than 5%% below plain %.4f", seed, aw, pw)
		}
	}
	if wins*2 < total {
		t.Errorf("γ-aware construction won only %d of %d seeds", wins, total)
	}
}

func TestAVGDSlotWeightsMalformedIgnored(t *testing.T) {
	in := randomInstance(2, 5, 6, 2, 0.5)
	f, err := SolveRelaxation(in, LPStructured, defaultTestLP())
	if err != nil {
		t.Fatal(err)
	}
	conf, _ := RoundAVGD(in, f, AVGDOptions{R: 1, SlotWeights: []float64{1}}) // wrong length
	if err := conf.Validate(in); err != nil {
		t.Fatal(err)
	}
}
