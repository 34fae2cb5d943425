package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/svgic/svgic/internal/graph"
	"github.com/svgic/svgic/internal/lp"
	"github.com/svgic/svgic/internal/stats"
)

// randomInstance builds a deterministic random instance for property tests.
func randomInstance(seed uint64, n, m, k int, lambda float64) *Instance {
	r := stats.NewRand(seed)
	g := graph.ErdosRenyi(n, 0.4, r)
	in := NewInstance(g, m, k, lambda)
	for u := 0; u < n; u++ {
		for c := 0; c < m; c++ {
			in.SetPref(u, c, r.Float64())
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			for c := 0; c < m; c++ {
				if r.Float64() < 0.5 {
					must(in.SetTau(u, v, c, 0.6*r.Float64()))
				}
			}
		}
	}
	return in
}

func TestSolveAVGProducesValidConfigurations(t *testing.T) {
	err := quick.Check(func(seedRaw uint16, nRaw, mRaw, kRaw uint8) bool {
		n := int(nRaw%8) + 2
		k := int(kRaw%3) + 1
		m := k + int(mRaw%6) + 1
		in := randomInstance(uint64(seedRaw), n, m, k, 0.5)
		conf, _, err := SolveAVG(in, AVGOptions{Seed: uint64(seedRaw) + 1})
		if err != nil {
			t.Logf("SolveAVG: %v", err)
			return false
		}
		return conf.Validate(in) == nil
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestSolveAVGDProducesValidConfigurations(t *testing.T) {
	err := quick.Check(func(seedRaw uint16, nRaw, mRaw, kRaw uint8) bool {
		n := int(nRaw%8) + 2
		k := int(kRaw%3) + 1
		m := k + int(mRaw%6) + 1
		in := randomInstance(uint64(seedRaw), n, m, k, 0.5)
		conf, _, err := SolveAVGD(in, AVGDOptions{})
		if err != nil {
			t.Logf("SolveAVGD: %v", err)
			return false
		}
		return conf.Validate(in) == nil
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestAVGDFourApproximationInvariant(t *testing.T) {
	// With r = 1/4, AVG-D's value must be at least a quarter of the LP
	// objective of the fractional solution it rounded (the paper's
	// Theorem 5, which holds for any feasible fractional input).
	for seed := uint64(1); seed <= 25; seed++ {
		in := randomInstance(seed, 2+int(seed%7), 6, 2, 0.5)
		conf, st, err := SolveAVGD(in, AVGDOptions{R: DefaultR})
		if err != nil {
			t.Fatal(err)
		}
		got := Evaluate(in, conf).Weighted()
		if got < st.LPObjective/4-1e-9 {
			t.Errorf("seed %d: AVG-D %.6f < LP/4 = %.6f", seed, got, st.LPObjective/4)
		}
	}
}

func TestAVGDFullRescanEquivalence(t *testing.T) {
	// The dirty row/column caching must be behaviourally invisible: with and
	// without it, AVG-D makes identical choices.
	for seed := uint64(1); seed <= 10; seed++ {
		in := randomInstance(seed, 3+int(seed%6), 7, 2, 0.5)
		f, err := SolveRelaxation(in, LPStructured, defaultTestLP())
		if err != nil {
			t.Fatal(err)
		}
		inc, _ := RoundAVGD(in, f, AVGDOptions{R: 0.7})
		full, _ := RoundAVGD(in, f, AVGDOptions{R: 0.7, FullRescan: true})
		for u := range inc.Assign {
			for s := range inc.Assign[u] {
				if inc.Assign[u][s] != full.Assign[u][s] {
					t.Fatalf("seed %d: incremental and full-rescan AVG-D diverge at (%d,%d): %d vs %d",
						seed, u, s, inc.Assign[u][s], full.Assign[u][s])
				}
			}
		}
	}
}

func TestAVGSamplingModesBothComplete(t *testing.T) {
	in := randomInstance(3, 6, 8, 3, 0.5)
	f, err := SolveRelaxation(in, LPStructured, defaultTestLP())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []SamplingMode{SamplingAdvanced, SamplingOriginal} {
		conf, st := RoundAVG(in, f, AVGOptions{Seed: 5, Sampling: mode})
		if err := conf.Validate(in); err != nil {
			t.Errorf("%v sampling: %v", mode, err)
		}
		if mode == SamplingOriginal && st.Idle == 0 {
			t.Error("original sampling reported zero idle draws — suspicious for k=3")
		}
		if mode == SamplingAdvanced && st.Idle != 0 {
			t.Errorf("advanced sampling had %d idle draws", st.Idle)
		}
	}
}

func TestAVGSizeCapRespected(t *testing.T) {
	err := quick.Check(func(seedRaw uint16, capRaw uint8) bool {
		cap := int(capRaw%4) + 1
		n := 8
		m := 10
		in := randomInstance(uint64(seedRaw), n, m, 2, 0.5)
		if n > m*cap {
			return true
		}
		conf, _, err := SolveAVG(in, AVGOptions{Seed: uint64(seedRaw), SizeCap: cap})
		if err != nil {
			t.Logf("SolveAVG(ST): %v", err)
			return false
		}
		return conf.Validate(in) == nil && conf.SizeViolations(cap) == 0
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestAVGDSizeCapRespected(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		cap := 1 + int(seed%3)
		in := randomInstance(seed, 8, 10, 2, 0.5)
		conf, _, err := SolveAVGD(in, AVGDOptions{SizeCap: cap})
		if err != nil {
			t.Fatal(err)
		}
		if err := conf.Validate(in); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v := conf.SizeViolations(cap); v != 0 {
			t.Errorf("seed %d: %d size violations at cap %d", seed, v, cap)
		}
	}
}

// TestAVGDWithCapAndWeights runs AVG-D's rounding with a size cap and slot
// weights together: the result must stay valid and within the cap.
func TestAVGDWithCapAndWeights(t *testing.T) {
	in := randomInstance(9, 12, 40, 4, 0.5)
	f, err := SolveRelaxation(in, LPStructured, defaultTestLP())
	if err != nil {
		t.Fatal(err)
	}
	conf, _ := RoundAVGD(in, f, AVGDOptions{R: 1, SizeCap: 4, SlotWeights: []float64{4, 3, 2, 1}})
	if err := conf.Validate(in); err != nil {
		t.Fatal(err)
	}
	if v := conf.SizeViolations(4); v != 0 {
		t.Errorf("%d size violations at cap 4", v)
	}
}

func TestSizeCapInfeasibleRejected(t *testing.T) {
	in := randomInstance(1, 9, 4, 2, 0.5) // 9 users > 4 items × cap 2
	if _, _, err := SolveAVG(in, AVGOptions{SizeCap: 2}); err == nil {
		t.Error("infeasible cap accepted by AVG")
	}
	if _, _, err := SolveAVGD(in, AVGDOptions{SizeCap: 2}); err == nil {
		t.Error("infeasible cap accepted by AVG-D")
	}
}

func TestLambdaZeroShortcut(t *testing.T) {
	in := randomInstance(5, 6, 8, 3, 0)
	conf, _, err := SolveAVG(in, AVGOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := PersonalizedConfig(in)
	for u := range want.Assign {
		for s := range want.Assign[u] {
			if conf.Assign[u][s] != want.Assign[u][s] {
				t.Fatalf("λ=0 shortcut differs from top-k at (%d,%d)", u, s)
			}
		}
	}
	// AVG-D takes the same shortcut at λ=0.
	confD, _, err := SolveAVGD(in, AVGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if Evaluate(in, confD).Weighted() < Evaluate(in, conf).Weighted()-1e-9 {
		t.Error("AVG-D below the λ=0 optimum")
	}
}

func TestAVGDeterministicPerSeed(t *testing.T) {
	in := randomInstance(8, 6, 8, 3, 0.5)
	a, _, err := SolveAVG(in, AVGOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SolveAVG(in, AVGOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for u := range a.Assign {
		for s := range a.Assign[u] {
			if a.Assign[u][s] != b.Assign[u][s] {
				t.Fatal("same seed produced different configurations")
			}
		}
	}
}

func TestRepeatsNeverHurt(t *testing.T) {
	in := randomInstance(10, 8, 10, 3, 0.5)
	f, err := SolveRelaxation(in, LPStructured, defaultTestLP())
	if err != nil {
		t.Fatal(err)
	}
	one, _ := RoundAVG(in, f, AVGOptions{Seed: 3, Repeats: 1})
	ten, _ := RoundAVG(in, f, AVGOptions{Seed: 3, Repeats: 10})
	if Evaluate(in, ten).Weighted() < Evaluate(in, one).Weighted()-1e-9 {
		t.Error("best-of-10 is worse than the single run with the same base seed")
	}
}

func TestTrivialRoundingWeakOnIndifferentInstance(t *testing.T) {
	// Lemma 3's instance: complete graph, equal τ everywhere, uniform
	// factors; independent rounding recovers ≈ 1/m of CSF's value.
	const n, m, k = 6, 12, 2
	g := graph.Complete(n)
	in := NewInstance(g, m, k, 1)
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			for c := 0; c < m; c++ {
				must(in.SetTau(u, v, c, 0.5))
			}
		}
	}
	X := make([][]float64, n)
	for u := range X {
		X[u] = make([]float64, m)
		for c := range X[u] {
			X[u][c] = float64(k) / float64(m)
		}
	}
	f := FactorsFromCondensed(in, X)
	csfConf, _ := RoundAVG(in, f, AVGOptions{Seed: 2})
	csf := Evaluate(in, csfConf).Weighted()
	var indep float64
	const trials = 30
	for s := uint64(0); s < trials; s++ {
		indep += Evaluate(in, TrivialRounding(in, f, s)).Weighted()
	}
	indep /= trials
	if indep > csf/2 {
		t.Errorf("independent rounding %.3f is not far below CSF %.3f (want ≈ 1/m = %.3f of it)",
			indep, csf, 1/float64(m))
	}
	if math.Abs(csf-float64(n*(n-1))*0.5*float64(k)) > 1e-9 {
		t.Errorf("CSF did not recover the full co-display optimum: %.3f", csf)
	}
}

func TestFactorsFactor(t *testing.T) {
	in := buildPaperExample(0.5)
	f := paperTable6Factors(in)
	if got := f.Factor(0, 0); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Factor = %v, want 1/3", got)
	}
}

func TestSolveRelaxationModesAgree(t *testing.T) {
	in := randomInstance(4, 4, 5, 2, 0.5)
	structured, err := SolveRelaxation(in, LPStructured, defaultTestLP())
	if err != nil {
		t.Fatal(err)
	}
	condensed, err := SolveRelaxation(in, LPSimplexCondensed, defaultTestLP())
	if err != nil {
		t.Fatal(err)
	}
	full, err := SolveRelaxation(in, LPSimplexFull, defaultTestLP())
	if err != nil {
		t.Fatal(err)
	}
	// Exact condensed and exact full share the optimal value (Observation 2);
	// the structured solver lower-bounds it.
	if math.Abs(condensed.Objective-full.Objective) > 1e-5 {
		t.Errorf("condensed LP %.6f != full LP %.6f (Observation 2 violated)",
			condensed.Objective, full.Objective)
	}
	if structured.Objective > condensed.Objective+1e-6 {
		t.Errorf("structured %.6f exceeds exact %.6f", structured.Objective, condensed.Objective)
	}
	if structured.Objective < 0.9*condensed.Objective {
		t.Errorf("structured %.6f below 90%% of exact %.6f", structured.Objective, condensed.Objective)
	}
}

func defaultTestLP() lp.RelaxOptions {
	return lp.RelaxOptions{MaxPasses: 50, PolishIters: 80, Restarts: 2}
}
