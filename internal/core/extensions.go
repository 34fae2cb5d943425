package core

import (
	"sort"
)

// Extensions of Section 5 of the paper: commodity values (A), layout slot
// significance (B), multi-view display (C) and subgroup-change smoothing
// (E). The dynamic scenario (F) lives in dynamic.go.

// WeightedInstance returns a copy of the instance with every utility of item
// c scaled by weight[c] (Extension A: commodity values ω_c). Any SVGIC solver
// run on the weighted instance maximizes the profit-weighted objective.
func WeightedInstance(in *Instance, weight []float64) *Instance {
	out := NewInstance(in.G, in.NumItems, in.K, in.Lambda)
	for u := 0; u < in.NumUsers(); u++ {
		for c := 0; c < in.NumItems; c++ {
			out.Pref[u][c] = in.Pref[u][c] * weight[c]
		}
	}
	for u := 0; u < in.NumUsers(); u++ {
		for _, v := range in.G.Out(u) {
			for c := 0; c < in.NumItems; c++ {
				if t := in.Tau(u, v, c); t != 0 {
					must(out.SetTau(u, v, c, t*weight[c]))
				}
			}
		}
	}
	return out
}

// EvaluateWithSlotWeights scores a configuration with per-slot significance
// weights γ_s (Extension B): slot s's preference and direct-co-display
// contributions are scaled by gamma[s].
func EvaluateWithSlotWeights(in *Instance, conf *Configuration, gamma []float64) float64 {
	var total float64
	for s := 0; s < conf.K; s++ {
		var pref, soc float64
		for u := 0; u < in.NumUsers(); u++ {
			it := conf.Assign[u][s]
			if it == Unassigned {
				continue
			}
			pref += in.Pref[u][it]
			for _, v := range in.G.Out(u) {
				if conf.Assign[v][s] == it {
					soc += in.Tau(u, v, it)
				}
			}
		}
		total += gamma[s] * ((1-in.Lambda)*pref + in.Lambda*soc)
	}
	return total
}

// OptimizeSlotOrder permutes the slots of a configuration globally so that
// the most valuable per-slot contributions land on the most significant
// slots. A global slot permutation preserves validity and every co-display
// relation, so under plain SVGIC it is value-neutral while maximizing the
// γ-weighted objective exactly (sort both by value).
func OptimizeSlotOrder(in *Instance, conf *Configuration, gamma []float64) *Configuration {
	k := conf.K
	value := make([]float64, k)
	for s := 0; s < k; s++ {
		g := make([]float64, k)
		g[s] = 1
		value[s] = EvaluateWithSlotWeights(in, conf, g)
	}
	bySlotValue := make([]int, k)
	byGamma := make([]int, k)
	for i := range bySlotValue {
		bySlotValue[i] = i
		byGamma[i] = i
	}
	sort.Slice(bySlotValue, func(a, b int) bool { return value[bySlotValue[a]] > value[bySlotValue[b]] })
	sort.Slice(byGamma, func(a, b int) bool { return gamma[byGamma[a]] > gamma[byGamma[b]] })
	out := NewConfiguration(conf.NumUsers(), k)
	for rank := 0; rank < k; rank++ {
		src := bySlotValue[rank]
		dst := byGamma[rank]
		for u := range conf.Assign {
			out.Assign[u][dst] = conf.Assign[u][src]
		}
	}
	return out
}

// MultiViewConfig is an MVD-supportive configuration (Extension C): each
// display unit holds up to β items, the primary view first.
type MultiViewConfig struct {
	Views [][][]int // [user][slot][view]
	K     int
	Beta  int
}

// GreedyMVD extends a primary configuration to multi-view display: at every
// slot each user keeps the primary item and greedily adds up to β−1 group
// views, chosen among the items friends see at the same slot by descending
// social gain. No item is repeated across a user's views.
func GreedyMVD(in *Instance, base *Configuration, beta int) *MultiViewConfig {
	n, k := in.NumUsers(), in.K
	mv := &MultiViewConfig{Views: make([][][]int, n), K: k, Beta: beta}
	for u := 0; u < n; u++ {
		mv.Views[u] = make([][]int, k)
		seen := make(map[int]struct{}, k*beta)
		for _, it := range base.Assign[u] {
			seen[it] = struct{}{}
		}
		for s := 0; s < k; s++ {
			views := []int{base.Assign[u][s]}
			// Candidate group views: friends' primary items at this slot.
			type cand struct {
				item int
				gain float64
			}
			gains := make(map[int]float64)
			for _, v := range in.G.Out(u) {
				it := base.Assign[v][s]
				if it == Unassigned || it == base.Assign[u][s] {
					continue
				}
				if _, dup := seen[it]; dup {
					continue
				}
				gains[it] += in.Lambda * in.Tau(u, v, it)
			}
			cands := make([]cand, 0, len(gains))
			for it, g := range gains {
				cands = append(cands, cand{item: it, gain: g})
			}
			sort.Slice(cands, func(a, b int) bool {
				if cands[a].gain != cands[b].gain {
					return cands[a].gain > cands[b].gain
				}
				return cands[a].item < cands[b].item
			})
			for _, cd := range cands {
				if len(views) >= beta {
					break
				}
				views = append(views, cd.item)
				seen[cd.item] = struct{}{}
			}
			mv.Views[u][s] = views
		}
	}
	return mv
}

// EvaluateMVD scores a multi-view configuration: every view contributes its
// preference utility, and two friends sharing any view (primary or group) of
// the same item at the same slot realize the social utility (the free
// primary/group view switching of Extension C).
func EvaluateMVD(in *Instance, mv *MultiViewConfig) Report {
	rep := Report{Lambda: in.Lambda}
	n := in.NumUsers()
	hasView := func(u, s, item int) bool {
		for _, it := range mv.Views[u][s] {
			if it == item {
				return true
			}
		}
		return false
	}
	for u := 0; u < n; u++ {
		for s := 0; s < mv.K; s++ {
			for _, it := range mv.Views[u][s] {
				rep.Preference += in.Pref[u][it]
				for _, v := range in.G.Out(u) {
					if hasView(v, s, it) {
						rep.Social += in.Tau(u, v, it)
					}
				}
			}
		}
	}
	// Shared views are double counted per direction above only when both
	// directions exist, matching Definition 3's per-user sums.
	return rep
}

// StabilizeSubgroups reorders the slots of a configuration to minimize the
// total subgroup edit distance between consecutive slots (Extension E).
// A global slot permutation leaves the SVGIC objective unchanged, so the
// smoothing is free; the ordering is a nearest-neighbour chain on partition
// distance. It returns the reordered configuration and its edit distance.
func StabilizeSubgroups(in *Instance, conf *Configuration) (*Configuration, int) {
	k := conf.K
	if k <= 2 {
		return conf.Clone(), SubgroupEditDistance(in, conf)
	}
	pairs := in.G.Pairs()
	together := make([][]bool, k) // per slot, per pair: co-displayed?
	for s := 0; s < k; s++ {
		together[s] = make([]bool, len(pairs))
		for e, p := range pairs {
			cu := conf.Assign[p[0]][s]
			together[s][e] = cu != Unassigned && cu == conf.Assign[p[1]][s]
		}
	}
	dist := func(a, b int) int {
		d := 0
		for e := range pairs {
			if together[a][e] != together[b][e] {
				d++
			}
		}
		return d
	}
	used := make([]bool, k)
	order := make([]int, 0, k)
	cur := 0
	used[0] = true
	order = append(order, 0)
	for len(order) < k {
		best, bestD := -1, 1<<30
		for s := 0; s < k; s++ {
			if !used[s] {
				if d := dist(cur, s); d < bestD {
					bestD, best = d, s
				}
			}
		}
		used[best] = true
		order = append(order, best)
		cur = best
	}
	out := NewConfiguration(conf.NumUsers(), k)
	for pos, src := range order {
		for u := range conf.Assign {
			out.Assign[u][pos] = conf.Assign[u][src]
		}
	}
	return out, SubgroupEditDistance(in, out)
}
