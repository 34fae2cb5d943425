package core

// LocalSearch improves a configuration by repeated exact per-user best
// responses (each an assignment problem over the user's slots × items, see
// assignment.go) until a fixed point or maxPasses sweeps. It is the local-
// search refinement the paper sketches for the dynamic scenario and the
// subgroup-change extension, packaged as a general post-optimizer: it never
// decreases the objective and preserves validity and the SVGIC-ST size cap.
//
// It returns the total objective improvement. One assignment workspace
// serves every best response of the run.
func LocalSearch(in *Instance, conf *Configuration, maxPasses, cap int) float64 {
	if maxPasses <= 0 {
		maxPasses = 3
	}
	var w assignWork
	var total float64
	for pass := 0; pass < maxPasses; pass++ {
		var improved float64
		for u := 0; u < in.NumUsers(); u++ {
			improved += bestResponse(in, conf, u, cap, nil, &w)
		}
		total += improved
		if improved <= 1e-12 {
			break
		}
	}
	return total
}
