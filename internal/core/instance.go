// Package core implements the paper's primary contribution: the SVGIC /
// SVGIC-ST problems (Social-aware VR Group-Item Configuration), their
// evaluation semantics, the AVG approximation algorithm (LP relaxation +
// Co-display Subgroup Formation rounding), its derandomized variant AVG-D,
// the independent-rounding strawman of Lemma 3, the hardness-construction
// instances, and the practical extensions of Section 5.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/svgic/svgic/internal/graph"
	"github.com/svgic/svgic/internal/lp"
)

// Instance is one SVGIC problem instance: a directed social network over n
// shoppers, m items, k display slots, the preference utilities p(u,c), the
// per-directed-edge social utilities τ(u,v,c) and the preference/social
// trade-off weight λ ∈ [0,1].
type Instance struct {
	G        *graph.Graph
	NumItems int
	K        int
	Lambda   float64
	Pref     [][]float64 // [user][item] preference utility p(u,c) ≥ 0

	tau map[int64][]float64 // directed edge (u,v) -> per-item τ(u,v,·)
}

// NewInstance returns an instance with all-zero utilities.
// The graph is referenced, not copied.
func NewInstance(g *graph.Graph, numItems, k int, lambda float64) *Instance {
	n := g.NumVertices()
	pref := make([][]float64, n)
	for u := range pref {
		pref[u] = make([]float64, numItems)
	}
	return &Instance{
		//lint:ignore cloneescape documented contract: the graph is referenced, not copied — callers share immutable graphs across instances and Clone() deep-copies when mutation is coming
		G:        g,
		NumItems: numItems,
		K:        k,
		Lambda:   lambda,
		Pref:     pref,
		tau:      make(map[int64][]float64),
	}
}

// NumUsers returns the number of shoppers.
func (in *Instance) NumUsers() int { return in.G.NumVertices() }

// Clone returns a deep copy of the instance: the graph, the preference
// matrix and every τ vector are private to the copy. Layers that mutate
// instances in place — the dynamic session's Leave zeroes utility rows, a
// drift-repair snapshot races concurrent events — clone first so the
// caller's instance (and any cache entry sharing it) stays intact.
func (in *Instance) Clone() *Instance {
	c := NewInstance(in.G.Clone(), in.NumItems, in.K, in.Lambda)
	for u := range in.Pref {
		copy(c.Pref[u], in.Pref[u])
	}
	for key, vec := range in.tau {
		c.tau[key] = append([]float64(nil), vec...)
	}
	return c
}

// edgeKey packs the directed edge (u,v) into a τ map key. It does not depend
// on the user count, so appending a user leaves every key valid. User ids
// stay below 2^31, as graph vertex ids do.
func edgeKey(u, v int) int64 { return int64(u)<<32 | int64(v) }

// appendUser grows the instance by one user with a copy of pref, joined by
// mutual edges to friends (distinct, ascending), and returns the new id.
// Nothing already in the instance is copied or rebuilt.
func (in *Instance) appendUser(pref []float64, friends []int) int {
	nu := in.G.AddVertex(friends)
	in.Pref = append(in.Pref, slices.Clone(pref))
	return nu
}

// setTauRow sets τ(u,v,·) from vec on an edge that has no τ vector yet,
// storing the nonzero entries only, as per-item SetTau calls skipping zeros
// would. A nil or all-zero vec stores nothing.
func (in *Instance) setTauRow(u, v int, vec []float64) {
	var row []float64
	for c, t := range vec {
		if t == 0 {
			continue
		}
		if row == nil {
			row = make([]float64, in.NumItems)
			in.tau[edgeKey(u, v)] = row
		}
		row[c] = t
	}
}

// zeroTau zeroes τ(u,v,·) and τ(v,u,·) in place, for whichever of the two
// vectors exist; it never creates one.
func (in *Instance) zeroTau(u, v int) {
	clear(in.tau[edgeKey(u, v)])
	clear(in.tau[edgeKey(v, u)])
}

// tauRow returns τ(u,v,·), or nil when no utility was set on (u,v). The
// slice must not be modified.
func (in *Instance) tauRow(u, v int) []float64 { return in.tau[edgeKey(u, v)] }

// SetPref sets the preference utility p(u,c).
func (in *Instance) SetPref(u, c int, p float64) { in.Pref[u][c] = p }

// SetTau sets the social utility τ(u,v,c) of user u viewing item c together
// with user v. The directed edge (u,v) must exist in the graph.
func (in *Instance) SetTau(u, v, c int, t float64) error {
	if !in.G.HasEdge(u, v) {
		return fmt.Errorf("core: τ(%d,%d,·) set on a non-edge", u, v)
	}
	k := edgeKey(u, v)
	vec, ok := in.tau[k]
	if !ok {
		vec = make([]float64, in.NumItems)
		in.tau[k] = vec
	}
	vec[c] = t
	return nil
}

// Tau returns the social utility τ(u,v,c); zero when the directed edge (u,v)
// is absent or no utility was set.
func (in *Instance) Tau(u, v, c int) float64 {
	if vec, ok := in.tau[edgeKey(u, v)]; ok {
		return vec[c]
	}
	return 0
}

// PairSocial returns the combined social weight of the social pair {u,v} on
// item c: τ(u,v,c) + τ(v,u,c) counting only existing directed edges.
func (in *Instance) PairSocial(u, v, c int) float64 {
	return in.Tau(u, v, c) + in.Tau(v, u, c)
}

// Validate checks structural sanity: k ≤ m (otherwise the no-duplication
// constraint is unsatisfiable), λ in range, non-negative finite utilities no
// larger than MaxUtility.
//
// Every numeric check rejects NaN and ±Inf explicitly: range comparisons are
// false for NaN, so without the finiteness guards a NaN λ, preference or τ
// would slip through and silently poison the LP coefficients, the CSF scores
// and the instance fingerprint. This is the trust boundary for untrusted
// JSON entering through the CLI and the svgicd serving path.
func (in *Instance) Validate() error {
	if in.K <= 0 {
		return fmt.Errorf("core: k=%d must be positive", in.K)
	}
	if in.K > in.NumItems {
		return fmt.Errorf("core: k=%d exceeds m=%d; the no-duplication constraint is unsatisfiable", in.K, in.NumItems)
	}
	if !isFinite(in.Lambda) {
		return fmt.Errorf("core: λ=%v is not finite", in.Lambda)
	}
	if in.Lambda < 0 || in.Lambda > 1 {
		return fmt.Errorf("core: λ=%g out of [0,1]", in.Lambda)
	}
	for u, row := range in.Pref {
		if len(row) != in.NumItems {
			return fmt.Errorf("core: preference row %d has %d items, want %d", u, len(row), in.NumItems)
		}
		for c, p := range row {
			if err := checkUtility(p); err != nil {
				return fmt.Errorf("core: p(%d,%d)=%v %w", u, c, p, err)
			}
		}
	}
	for key, vec := range in.tau {
		u, v := key>>32, key&(1<<32-1)
		for c, t := range vec {
			if err := checkUtility(t); err != nil {
				return fmt.Errorf("core: τ(%d,%d,%d)=%v %w", u, v, c, t, err)
			}
		}
	}
	return nil
}

// MaxUtility bounds every preference and τ value an instance or a session
// event may carry. Far above any real utility, it keeps every objective sum
// and assignment cost finite: a user's best-response gain is at most
// (1+2·deg)·MaxUtility, so no sum over any realistic session can reach
// the float64 range.
const MaxUtility = 1e150

// errNotFinite, errNegative and errTooLarge are checkUtility's verdicts,
// phrased to follow the offending value in an error message.
var (
	errNotFinite = errors.New("is not finite")
	errNegative  = errors.New("is negative")
	errTooLarge  = fmt.Errorf("exceeds the utility bound %g", float64(MaxUtility))
)

// checkUtility reports why x is not a valid preference or τ value: finite,
// non-negative and at most MaxUtility.
func checkUtility(x float64) error {
	switch {
	case !isFinite(x):
		return errNotFinite
	case x < 0:
		return errNegative
	case x > MaxUtility:
		return errTooLarge
	}
	return nil
}

// isFinite reports whether x is neither NaN nor ±Inf.
func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// PrefCoef returns the weighted preference coefficients aP[u][c] = (1−λ)·p(u,c)
// optionally scaled per item by itemWeight (commodity values, Extension A;
// nil means all ones).
func (in *Instance) PrefCoef(itemWeight []float64) [][]float64 {
	n := in.NumUsers()
	out := make([][]float64, n)
	w := 1 - in.Lambda
	for u := 0; u < n; u++ {
		row := make([]float64, in.NumItems)
		for c := 0; c < in.NumItems; c++ {
			row[c] = w * in.Pref[u][c]
			if itemWeight != nil {
				row[c] *= itemWeight[c]
			}
		}
		out[u] = row
	}
	return out
}

// PairCoef returns the weighted social coefficients
// aS[pair][c] = λ·(τ(u,v,c)+τ(v,u,c)), optionally scaled per item.
func (in *Instance) PairCoef(itemWeight []float64) [][]float64 {
	pairs := in.G.Pairs()
	out := make([][]float64, len(pairs))
	for e, p := range pairs {
		row := make([]float64, in.NumItems)
		for c := 0; c < in.NumItems; c++ {
			row[c] = in.Lambda * in.PairSocial(p[0], p[1], c)
			if itemWeight != nil {
				row[c] *= itemWeight[c]
			}
		}
		out[e] = row
	}
	return out
}

// Relaxation builds the condensed LP_SIMP relaxation (Observation 2) of this
// instance for the lp package.
func (in *Instance) Relaxation() *lp.Relaxation {
	return &lp.Relaxation{
		NumUsers: in.NumUsers(),
		NumItems: in.NumItems,
		K:        in.K,
		Pref:     in.PrefCoef(nil),
		Pairs:    in.G.Pairs(),
		PairW:    in.PairCoef(nil),
	}
}
