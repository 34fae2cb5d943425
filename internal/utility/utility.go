// Package utility simulates the preference/social utility learners the paper
// feeds into SVGIC. The paper obtains p(u,c) and τ(u,v,c) from PIERT (a
// joint latent-topic + social-influence model), AGREE (uniform pairwise
// influence) and GREE (learned per-triple weights); real training data is
// unavailable here, so each learner is replaced by a generative model with
// the same distinguishing structure (see DESIGN.md §7):
//
//   - PIERT-like: users and items get latent topic mixtures; preferences are
//     topic affinity × item popularity; social utility couples the pair's
//     topic similarity (influence) with the item's relevance to both users.
//   - AGREE-like: identical preference model, but the pairwise influence is
//     a single constant — every friend influences a user equally.
//   - GREE-like: per-(u,v,c) weights drawn around the PIERT value with
//     heavy independent noise, emulating fully learned triple weights.
package utility

import (
	"math"
	"math/rand/v2"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/graph"
	"github.com/svgic/svgic/internal/stats"
)

// ModelKind selects the simulated learner.
type ModelKind int

// Simulated utility learners.
const (
	PIERT ModelKind = iota
	AGREE
	GREE
)

func (m ModelKind) String() string {
	switch m {
	case PIERT:
		return "PIERT"
	case AGREE:
		return "AGREE"
	case GREE:
		return "GREE"
	}
	return "unknown"
}

// Params shapes the generative utility model. The zero value is unusable;
// start from Defaults().
type Params struct {
	Model          ModelKind
	Topics         int     // latent topic dimensionality
	AlphaUser      float64 // user topic concentration; small = narrow interests
	AlphaItem      float64 // item topic concentration; small = specialized items
	PopularitySkew float64 // Zipf exponent of item popularity (0 = uniform)
	SocialScale    float64 // overall magnitude of τ relative to p
	Noise          float64 // multiplicative log-normal-ish noise on utilities
	// CommunityMix blends each user's topic vector towards their social
	// community's shared topic profile (0 = fully individual, 1 = fully
	// communal). Friends sharing interests is what makes subgroup-level
	// co-display profitable — the central trade-off of the paper.
	CommunityMix float64
}

// Defaults returns a balanced parameterization (Timik-like).
func Defaults() Params {
	return Params{
		Model:          PIERT,
		Topics:         8,
		AlphaUser:      0.3,
		AlphaItem:      0.2,
		PopularitySkew: 0.8,
		SocialScale:    0.35,
		Noise:          0.15,
		CommunityMix:   0.5,
	}
}

// Populate fills the instance's preference and social utilities in place
// according to the params, deterministically for a given seed.
func Populate(in *core.Instance, p Params, seed uint64) {
	r := stats.NewRand(seed)
	n, m := in.NumUsers(), in.NumItems
	if p.Topics <= 0 {
		p.Topics = 8
	}
	// Friends share interests: blend each user's topics towards a per-
	// community profile derived from the social network itself. Label
	// propagation collapses on dense small-world samples, so when it finds
	// fewer communities than one per ~10 users we fall back to a balanced
	// min-cut partition of shopping-circle size.
	community := graph.LabelPropagation(in.G, r, 30)
	numComm := 0
	for _, c := range community {
		if c+1 > numComm {
			numComm = c + 1
		}
	}
	if want := max(2, n/10); numComm < want && n >= 8 {
		community = graph.BalancedPartition(in.G, want, r)
		numComm = want
	}
	commTopic := make([][]float64, numComm)
	for i := range commTopic {
		commTopic[i] = stats.Dirichlet(r, p.Topics, 0.15)
	}
	userTopic := make([][]float64, n)
	for u := range userTopic {
		own := stats.Dirichlet(r, p.Topics, p.AlphaUser)
		base := commTopic[community[u]]
		mixed := make([]float64, p.Topics)
		for t := range mixed {
			mixed[t] = p.CommunityMix*base[t] + (1-p.CommunityMix)*own[t]
		}
		userTopic[u] = mixed
	}
	itemTopic := make([][]float64, m)
	for c := range itemTopic {
		itemTopic[c] = stats.Dirichlet(r, p.Topics, p.AlphaItem)
	}
	pop := stats.ZipfWeights(m, p.PopularitySkew)
	// Shuffle popularity so item ids carry no order information.
	for i := m - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		pop[i], pop[j] = pop[j], pop[i]
	}

	noise := func() float64 {
		if p.Noise <= 0 {
			return 1
		}
		return math.Exp(p.Noise * r.NormFloat64())
	}
	affinity := func(u, c int) float64 {
		var dot float64
		for t := 0; t < p.Topics; t++ {
			dot += userTopic[u][t] * itemTopic[c][t]
		}
		return dot * float64(p.Topics) // rescale so a matched topic ≈ 1
	}
	// Popularity-free topic relevance, kept for the social terms: discussion
	// potential follows shared interest, not global popularity, which keeps
	// "co-display one blockbuster item to everyone" from dominating.
	rel := make([][]float64, n)
	for u := 0; u < n; u++ {
		rel[u] = make([]float64, m)
		for c := 0; c < m; c++ {
			a := stats.Clamp(affinity(u, c)/2, 0, 1)
			rel[u][c] = a
			v := affinity(u, c) * math.Sqrt(pop[c]) * noise()
			in.SetPref(u, c, stats.Clamp(v/2, 0, 1))
		}
	}

	// Pairwise influence.
	similarity := func(u, v int) float64 {
		var dot, nu, nv float64
		for t := 0; t < p.Topics; t++ {
			dot += userTopic[u][t] * userTopic[v][t]
			nu += userTopic[u][t] * userTopic[u][t]
			nv += userTopic[v][t] * userTopic[v][t]
		}
		if nu == 0 || nv == 0 {
			return 0
		}
		return dot / math.Sqrt(nu*nv)
	}
	for u := 0; u < n; u++ {
		for _, v := range in.G.Out(u) {
			var infl float64
			switch p.Model {
			case AGREE:
				infl = 0.5 // uniform influence across all friends
			default: // PIERT, GREE share the influence structure
				infl = 0.1 + 0.9*similarity(u, v)
			}
			for c := 0; c < m; c++ {
				// Discussion potential requires the item to interest both
				// sides; the geometric mean captures that coupling.
				pairRel := math.Sqrt(math.Max(rel[u][c], 1e-9) * math.Max(rel[v][c], 1e-9))
				t := p.SocialScale * infl * pairRel
				if p.Model == GREE {
					// Fully learned triple weights: heavy per-triple noise.
					t *= math.Exp(0.6 * r.NormFloat64())
				} else {
					t *= noise()
				}
				if t > 0.001 {
					if err := in.SetTau(u, v, c, stats.Clamp(t, 0, 1)); err != nil {
						panic(err) // edge taken from G.Out: cannot fail
					}
				}
			}
		}
	}
}

// RandRand exposes the deterministic stream builder for callers composing
// their own generation pipelines.
func RandRand(seed uint64) *rand.Rand { return stats.NewRand(seed) }
