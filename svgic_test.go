package svgic_test

import (
	"context"
	"math"
	"testing"

	svgic "github.com/svgic/svgic"
)

// buildExample constructs the paper's running example through the public API.
func buildExample(t *testing.T, lambda float64) *svgic.Instance {
	t.Helper()
	g := svgic.NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 2}, {2, 0}, {2, 1}, {3, 0}} {
		g.AddEdge(e[0], e[1])
	}
	in := svgic.NewInstance(g, 5, 3, lambda)
	pref := [][]float64{
		{0.8, 0.85, 0.1, 0.05, 1.0},
		{0.7, 1.0, 0.15, 0.2, 0.1},
		{0, 0.15, 0.7, 0.6, 0.1},
		{0.1, 0, 0.3, 1.0, 0.95},
	}
	for u, row := range pref {
		for c, p := range row {
			in.SetPref(u, c, p)
		}
	}
	tau := map[[2]int][]float64{
		{0, 1}: {0.2, 0.05, 0.1, 0, 0.05},
		{0, 2}: {0, 0.05, 0.1, 0, 0.3},
		{0, 3}: {0.2, 0.05, 0.1, 0.05, 0.2},
		{1, 0}: {0.2, 0.05, 0.1, 0.05, 0.05},
		{1, 2}: {0, 0.05, 0.1, 0.2, 0},
		{2, 0}: {0, 0.05, 0.1, 0.05, 0.3},
		{2, 1}: {0.1, 0.05, 0.1, 0.2, 0.05},
		{3, 0}: {0.3, 0.05, 0.05, 0, 0.25},
	}
	for e, row := range tau {
		for c, v := range row {
			if err := in.SetTau(e[0], e[1], c, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return in
}

func TestPublicAPISolvers(t *testing.T) {
	in := buildExample(t, 0.5)
	solvers := []svgic.Solver{
		svgic.AVG(svgic.AVGOptions{Seed: 1, Repeats: 3}),
		svgic.AVGD(svgic.AVGDOptions{}),
		svgic.AVGD(svgic.AVGDOptions{R: 1}),
		svgic.Personalized(),
		svgic.Group(0),
		svgic.SubgroupByFriendship(2, 1),
		svgic.SubgroupByPreference(2),
		svgic.ExactIP(0),
	}
	values := map[string]float64{}
	for _, s := range solvers {
		sol, err := s.Solve(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		values[s.Name()] = sol.Report.Scaled()
	}
	if math.Abs(values["IP"]-10.35) > 1e-6 {
		t.Errorf("exact IP = %.4f, want 10.35", values["IP"])
	}
	if math.Abs(values["PER"]-8.25) > 1e-9 || math.Abs(values["FMG"]-8.35) > 1e-9 {
		t.Errorf("baseline values: PER %v FMG %v", values["PER"], values["FMG"])
	}
	if values["AVG"] < 8.7 || values["AVG-D"] < 8.7 {
		t.Errorf("approximation algorithms below the best baseline: %v", values)
	}
}

func TestPublicAPIEvaluateAndMetrics(t *testing.T) {
	in := buildExample(t, 0.4)
	conf := svgic.NewConfiguration(4, 3)
	rows := [][]int{{4, 0, 1}, {1, 0, 3}, {4, 2, 3}, {4, 0, 3}}
	for u, row := range rows {
		copy(conf.Assign[u], row)
	}
	rep := svgic.Evaluate(in, conf)
	if math.Abs(rep.Preference-8.0) > 1e-9 {
		t.Errorf("preference = %v", rep.Preference)
	}
	if got := svgic.UserUtility(in, conf, 0); math.Abs(got-1.95) > 1e-9 {
		t.Errorf("UserUtility(Alice) = %v, want 1.95", got)
	}
	m := svgic.ComputeSubgroupMetrics(in, conf)
	if m.CoDisplayPct <= 0 || m.AlonePct < 0 {
		t.Errorf("metrics = %+v", m)
	}
	reg := svgic.RegretRatios(in, conf)
	if len(reg) != 4 {
		t.Fatalf("regret length = %d", len(reg))
	}
	if d := svgic.SubgroupEditDistance(in, conf); d < 0 {
		t.Errorf("edit distance = %d", d)
	}
}

func TestPublicAPIST(t *testing.T) {
	in, err := svgic.GenerateDataset(svgic.Epinions, 12, 20, 3, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := svgic.AVG(svgic.AVGOptions{Seed: 2, SizeCap: 3}).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	conf := sol.Config
	if sol.Rounding == nil || sol.Rounding.LPObjective <= 0 {
		t.Error("no LP objective reported")
	}
	if v := conf.SizeViolations(3); v != 0 {
		t.Errorf("size violations = %d", v)
	}
	rep := svgic.EvaluateST(in, conf, 0.5)
	if rep.Weighted() < svgic.Evaluate(in, conf).Weighted()-1e-9 {
		t.Error("teleportation discount lowered the objective below plain SVGIC")
	}
	pp := svgic.Prepartitioned(svgic.Group(1), 3, 1)
	if pp.Name() != "FMG-P" {
		t.Errorf("prepartitioned name = %q", pp.Name())
	}
	if _, err := pp.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIRegistry covers the package-level solver registry: discovery,
// construction with validated parameters, and extension via RegisterSolver.
func TestPublicAPIRegistry(t *testing.T) {
	names := svgic.SolverNames()
	for _, want := range []string{"avg", "avgd", "per", "fmg", "sdp", "grf", "ip"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in solver %q missing from SolverNames() = %v", want, names)
		}
	}
	if len(svgic.Solvers()) != len(names) {
		t.Errorf("Solvers() and SolverNames() disagree: %d vs %d", len(svgic.Solvers()), len(names))
	}
	if _, ok := svgic.LookupSolver("avgd"); !ok {
		t.Fatal("LookupSolver(avgd) failed")
	}

	in := buildExample(t, 0.5)
	s, err := svgic.NewSolver("avgd", svgic.Params{"r": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Algorithm != "AVG-D" || sol.Config == nil || sol.Rounding == nil {
		t.Errorf("registry AVG-D solution incomplete: %+v", sol)
	}
	if _, err := svgic.NewSolver("avgd", svgic.Params{"bogus": 1}); err == nil {
		t.Error("unknown parameter accepted")
	}
	if _, err := svgic.NewSolver("nope", nil); err == nil {
		t.Error("unknown solver accepted")
	}

	// A custom registration is immediately constructible by name.
	if err := svgic.RegisterSolver(svgic.SolverSpec{
		Name:        "always-per",
		Display:     "ALWAYS-PER",
		Description: "test-only alias of the personalized baseline",
		New: func(p svgic.SolverParams) (svgic.Solver, error) {
			return svgic.Personalized(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	custom, err := svgic.NewSolver("always-per", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := custom.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != "ALWAYS-PER" {
		t.Errorf("custom solver algorithm = %q", got.Algorithm)
	}
	if err := svgic.RegisterSolver(svgic.SolverSpec{Name: "always-per", New: func(svgic.SolverParams) (svgic.Solver, error) { return svgic.Personalized(), nil }}); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestPublicAPIDatasetsAndExtensions(t *testing.T) {
	for _, name := range []svgic.DatasetName{svgic.Timik, svgic.Epinions, svgic.Yelp} {
		in, err := svgic.GenerateDataset(name, 10, 15, 3, 0.5, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sol, err := svgic.AVGD(svgic.AVGDOptions{R: 1}).Solve(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		conf := sol.Config
		// Extensions through the public surface.
		w := make([]float64, in.NumItems)
		gamma := make([]float64, in.K)
		for i := range w {
			w[i] = 1 + float64(i%3)
		}
		for i := range gamma {
			gamma[i] = float64(in.K - i)
		}
		wi := svgic.WeightedInstance(in, w)
		if _, err := svgic.AVGD(svgic.AVGDOptions{}).Solve(context.Background(), wi); err != nil {
			t.Fatal(err)
		}
		re := svgic.OptimizeSlotOrder(in, conf, gamma)
		if svgic.EvaluateWithSlotWeights(in, re, gamma) < svgic.EvaluateWithSlotWeights(in, conf, gamma)-1e-9 {
			t.Error("slot reordering decreased the γ-weighted objective")
		}
		mv := svgic.GreedyMVD(in, conf, 2)
		if svgic.EvaluateMVD(in, mv).Weighted() < svgic.Evaluate(in, conf).Weighted()-1e-9 {
			t.Error("MVD lost utility")
		}
		stable, _ := svgic.StabilizeSubgroups(in, conf)
		if err := stable.Validate(in); err != nil {
			t.Fatal(err)
		}
		ds, err := svgic.NewDynamicSession(in, conf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Rebalance(2) < 0 {
			t.Error("negative rebalance improvement")
		}
	}
}

func TestPublicAPIUtilityGenerator(t *testing.T) {
	g := svgic.NewGraph(6)
	for i := 0; i < 5; i++ {
		g.AddMutualEdge(i, i+1)
	}
	in := svgic.NewInstance(g, 12, 3, 0.5)
	svgic.PopulateUtilities(in, svgic.DefaultUtilityParams(), 4)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	var any bool
	for u := 0; u < 6; u++ {
		for c := 0; c < 12; c++ {
			if in.Pref[u][c] > 0 {
				any = true
			}
		}
	}
	if !any {
		t.Error("generator produced all-zero preferences")
	}
}
