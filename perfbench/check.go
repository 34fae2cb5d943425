package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/server"
)

// checkSolve verifies one /v1/solve response against its instance: the
// assignment is a valid configuration, the weighted objective recomputed
// with core.Evaluate matches the reported one to 1e-9 relative, and it is
// at least a quarter of the LP objective the solver used (AVG-D's
// guarantee). With want set (hot-solve) the response must also carry
// exactly want's assignment and objective.
func checkSolve(in *core.Instance, body []byte, want *server.SolveResponse) (*server.SolveResponse, error) {
	var resp server.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding solve response: %w", err)
	}
	conf := &core.Configuration{K: resp.Slots, Assign: resp.Assignment}
	if resp.Slots != in.K || len(resp.Assignment) != in.NumUsers() {
		return nil, fmt.Errorf("response shape %d users x %d slots, instance %d x %d",
			len(resp.Assignment), resp.Slots, in.NumUsers(), in.K)
	}
	if err := conf.Validate(in); err != nil {
		return nil, fmt.Errorf("invalid assignment: %w", err)
	}
	got := core.Evaluate(in, conf).Weighted()
	if !closeRel(got, resp.Weighted, 1e-9) {
		return nil, fmt.Errorf("reported weighted %v, recomputed %v", resp.Weighted, got)
	}
	if resp.LPObjective <= 0 || resp.Weighted < resp.LPObjective/4*(1-1e-9) {
		return nil, fmt.Errorf("weighted %v below lpObjective/4 = %v", resp.Weighted, resp.LPObjective/4)
	}
	if want != nil {
		if resp.Weighted != want.Weighted || !sameAssignment(resp.Assignment, want.Assignment) {
			return nil, fmt.Errorf("hot response differs from its setup solve (weighted %v vs %v)", resp.Weighted, want.Weighted)
		}
	}
	return &resp, nil
}

// quality is a solve's weighted objective over the instance's LP upper
// bound.
func quality(in *core.Instance, assign [][]int) float64 {
	conf := &core.Configuration{K: in.K, Assign: assign}
	return core.Evaluate(in, conf).Weighted() / in.Relaxation().UpperBound()
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func sameAssignment(a, b [][]int) bool {
	return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
}
