package svgic_test

import (
	"context"
	"fmt"

	svgic "github.com/svgic/svgic"
)

// ExampleAVGD solves a two-friend store with the deterministic AVG-D solver.
func ExampleAVGD() {
	g := svgic.NewGraph(2)
	g.AddMutualEdge(0, 1)
	in := svgic.NewInstance(g, 3, 2, 0.5)
	// Both like item 0; user 0 also likes item 1, user 1 item 2.
	in.SetPref(0, 0, 0.9)
	in.SetPref(1, 0, 0.8)
	in.SetPref(0, 1, 0.7)
	in.SetPref(1, 2, 0.7)
	// Discussing item 0 together is valuable.
	_ = in.SetTau(0, 1, 0, 0.5)
	_ = in.SetTau(1, 0, 0, 0.5)

	sol, err := svgic.AVGD(svgic.AVGDOptions{}).Solve(context.Background(), in)
	if err != nil {
		panic(err)
	}
	conf := sol.Config
	rep := svgic.Evaluate(in, conf)
	fmt.Printf("co-displayed item 0: %v\n", conf.CoDisplayed(0, 1, 0))
	fmt.Printf("preference %.2f social %.2f\n", rep.Preference, rep.Social)
	// Output:
	// co-displayed item 0: true
	// preference 3.10 social 1.00
}

// ExampleEvaluateST shows the teleportation discount for indirect co-display.
func ExampleEvaluateST() {
	g := svgic.NewGraph(2)
	g.AddMutualEdge(0, 1)
	in := svgic.NewInstance(g, 2, 2, 1) // social-only (λ=1)
	_ = in.SetTau(0, 1, 0, 0.4)
	_ = in.SetTau(1, 0, 0, 0.6)

	conf := svgic.NewConfiguration(2, 2)
	copy(conf.Assign[0], []int{0, 1}) // user 0: item 0 at slot 0
	copy(conf.Assign[1], []int{1, 0}) // user 1: item 0 at slot 1 → indirect

	fmt.Printf("indirect, d_tel=0.5: %.2f\n", svgic.EvaluateST(in, conf, 0.5).Weighted())
	svgic.AlignSlots(in, conf, 0.5, 0, 0) // align the shared item
	fmt.Printf("aligned:             %.2f\n", svgic.EvaluateST(in, conf, 0.5).Weighted())
	// Output:
	// indirect, d_tel=0.5: 0.50
	// aligned:             1.00
}

// ExampleSolver iterates the whole algorithm lineup uniformly.
func ExampleSolver() {
	in, err := svgic.GenerateDataset(svgic.Timik, 12, 20, 3, 0.5, 42)
	if err != nil {
		panic(err)
	}
	solvers := []svgic.Solver{
		svgic.AVGD(svgic.AVGDOptions{R: 1}),
		svgic.Personalized(),
	}
	best := ""
	bestVal := -1.0
	for _, s := range solvers {
		sol, err := s.Solve(context.Background(), in)
		if err != nil {
			panic(err)
		}
		if v := sol.Report.Weighted(); v > bestVal {
			bestVal, best = v, sol.Algorithm
		}
	}
	fmt.Println("winner:", best)
	// Output:
	// winner: AVG-D
}

// ExampleNewSolver resolves a solver from the registry by name — the same
// names the CLIs and the HTTP API accept.
func ExampleNewSolver() {
	in, err := svgic.GenerateDataset(svgic.Timik, 12, 20, 3, 0.5, 42)
	if err != nil {
		panic(err)
	}
	s, err := svgic.NewSolver("avgd", svgic.Params{"r": 1.0})
	if err != nil {
		panic(err)
	}
	sol, err := s.Solve(context.Background(), in)
	if err != nil {
		panic(err)
	}
	fmt.Println(sol.Algorithm, "components:", sol.Components)
	// Output:
	// AVG-D components: 1
}

// ExampleMarshalInstance round-trips an instance through JSON.
func ExampleMarshalInstance() {
	g := svgic.NewGraph(2)
	g.AddEdge(0, 1)
	in := svgic.NewInstance(g, 2, 1, 0.3)
	in.SetPref(0, 0, 1)
	_ = in.SetTau(0, 1, 0, 0.2)

	data, _ := svgic.MarshalInstance(in)
	back, _ := svgic.UnmarshalInstance(data)
	fmt.Printf("users=%d items=%d lambda=%.1f tau=%.1f\n",
		back.NumUsers(), back.NumItems, back.Lambda, back.Tau(0, 1, 0))
	// Output:
	// users=2 items=2 lambda=0.3 tau=0.2
}
