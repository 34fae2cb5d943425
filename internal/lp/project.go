package lp

import "slices"

// ProjectCappedSimplex computes the Euclidean projection of v onto the
// capped simplex {x : 0 ≤ x_i ≤ 1, Σ x_i = k} in place, returning the result.
//
// The projection has the water-filling form x_i = clamp(v_i − θ, 0, 1) where
// θ is chosen so the coordinates sum to k. f(θ) = Σ clamp(v_i − θ, 0, 1) is
// continuous, non-increasing and piecewise linear in θ, with breakpoints at
// v_i − 1 (coordinate i leaves 1) and v_i (it reaches 0). One sorted copy of
// v orders both breakpoint sequences, so θ is found exactly by a merge walk
// over them — at most 2·len(v) steps for any input, NaN included — that stops
// at the segment where f crosses k and solves the linear equation there. The
// structured LP solver uses this in its supergradient polish phase.
//
// k must satisfy 0 ≤ k ≤ len(v); out of that range the nearest feasible
// boundary (all zeros / all ones) is returned.
func ProjectCappedSimplex(v []float64, k float64) []float64 {
	return projectCappedSimplex(v, k, make([]float64, len(v)))
}

// projectCappedSimplex is ProjectCappedSimplex with a caller-owned sort
// buffer of at least len(v) elements.
func projectCappedSimplex(v []float64, k float64, buf []float64) []float64 {
	m := len(v)
	if m == 0 {
		return v
	}
	if k <= 0 {
		for i := range v {
			v[i] = 0
		}
		return v
	}
	if k >= float64(m) {
		for i := range v {
			v[i] = 1
		}
		return v
	}
	s := buf[:m]
	copy(s, v)
	slices.Sort(s)
	// Walk θ upward. s[:ia] have left 1 and s[:ib] have reached 0, so the
	// m−ia coordinates above are at 1 and s[ib:ia] are free, each giving
	// s_i − θ. Offsets are kept relative to base, the first value of the
	// current run of free coordinates: a run spans at most m units, so the
	// free sum never cancels huge magnitudes. delta = θ − base at the root.
	ia, ib := 0, 0
	base, free, delta := 0.0, 0.0, 0.0
	for ia < m || ib < ia {
		nf := ia - ib
		// The next breakpoint is s[ib] reaching 0 when it comes no later
		// than s[ia]−1 leaving 1; d is its offset from base.
		takeB := nf > 0 && (ia == m || !(s[ia]-s[ib] < 1))
		var d float64
		if takeB {
			d = s[ib] - base
		} else {
			if nf == 0 {
				base = s[ia]
			}
			d = (s[ia] - base) - 1
		}
		if float64(m-ia)+free-float64(nf)*d <= k {
			// f crosses k on the segment ending at d. Exactly, nf > 0 there;
			// if round-off leaves it empty, f is flat and d itself is a root.
			delta = d
			if nf > 0 {
				delta = (float64(m-ia) + free - k) / float64(nf)
			}
			break
		}
		if takeB {
			free -= s[ib] - base
			ib++
		} else {
			free += s[ia] - base
			ia++
		}
	}
	for i, x := range v {
		v[i] = min(max((x-base)-delta, 0), 1)
	}
	// Distribute the residual round-off over interior coordinates so the sum
	// is k to high precision.
	var sum float64
	for _, x := range v {
		sum += x
	}
	if resid := k - sum; resid != 0 {
		for i, x := range v {
			if x > 1e-12 && x < 1-1e-12 {
				if nv := x + resid; nv >= 0 && nv <= 1 {
					v[i] = nv
					break
				}
			}
		}
	}
	return v
}
