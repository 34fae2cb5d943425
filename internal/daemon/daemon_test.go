package daemon

import (
	"strings"
	"testing"
)

// TestSolverSizeCap: -size-cap reaches the solver's sizeCap parameter, and
// an algorithm without one fails at startup instead of ignoring the cap.
func TestSolverSizeCap(t *testing.T) {
	if _, _, err := (&Config{Algo: "per", SizeCap: 1}).Solver(); err == nil || !strings.Contains(err.Error(), "has no sizeCap parameter") {
		t.Errorf("per with -size-cap 1: err = %v, want a sizeCap refusal", err)
	}

	newSolver, params, err := (&Config{Algo: "avgd", SizeCap: 3}).Solver()
	if err != nil {
		t.Fatal(err)
	}
	if params["sizeCap"] != 3 {
		t.Errorf("avgd with -size-cap 3: params = %v, want sizeCap 3", params)
	}
	if newSolver() == nil {
		t.Error("avgd factory returned nil")
	}

	if _, params, err := (&Config{Algo: "per"}).Solver(); err != nil {
		t.Errorf("per uncapped: %v", err)
	} else if _, ok := params["sizeCap"]; ok {
		t.Errorf("per uncapped: params = %v, want no sizeCap", params)
	}
}
