package core

import "math"

// MaxAssignment solves the rectangular assignment problem: given gain[s][c]
// for k rows (slots) and m ≥ k columns (items), choose a distinct column per
// row maximizing the total gain. It is the exact single-user best response
// in SVGIC — with every other user fixed, the best reply of user u assigns
// items to slots with gain(s,c) = aP(u,c) + Σ_{v: A(v,s)=c} aS(u,v,c) — and
// is used by the dynamic scenario (Extension F) to admit and rebalance users.
//
// Implementation: Jonker–Volgenant-style shortest augmenting path on the
// cost matrix cost = maxGain − gain, O(k²·m).
//
// It returns (nil, −Inf), the no-assignment result, when m < k, and also
// when any gain is not finite or the gains span more than the costs can
// hold: an infinite or NaN cost would leave the augmenting search without
// an improving column, spinning forever.
func MaxAssignment(gain [][]float64) ([]int, float64) {
	var w assignWork
	return w.solve(gain)
}

// assignWork holds the buffers of one assignment solve — the caller's k×m
// gain matrix, the costs, the potentials, the matching and search state and
// the result row — so a caller that solves many (a dynamic session, a
// LocalSearch run) allocates them once. It is not safe for concurrent use.
type assignWork struct {
	gain   [][]float64
	cost   []float64 // k×m, row-major
	u, v   []float64 // row and column potentials, 1-based
	minv   []float64
	p, way []int
	used   []bool
	row    []int
	occ    []int // capped occupancy buffer of bestResponse without counts
}

// gains returns the workspace's k×m gain matrix; its contents are stale.
func (w *assignWork) gains(k, m int) [][]float64 {
	if len(w.gain) != k || (k > 0 && len(w.gain[0]) != m) {
		w.gain = make([][]float64, k)
		for s := range w.gain {
			w.gain[s] = make([]float64, m)
		}
	}
	return w.gain
}

// grow returns buf resized to n, reallocating only when its capacity is
// short; the contents are stale.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// solve is MaxAssignment on the workspace's buffers. The returned row is
// the workspace's own and is overwritten by the next solve.
func (w *assignWork) solve(gain [][]float64) ([]int, float64) {
	k := len(gain)
	if k == 0 {
		return nil, 0
	}
	m := len(gain[0])
	if m < k {
		return nil, math.Inf(-1)
	}
	// Convert to a minimization problem with non-negative costs.
	maxG, minG := math.Inf(-1), math.Inf(1)
	for s := range gain {
		for _, g := range gain[s] {
			if !isFinite(g) {
				return nil, math.Inf(-1)
			}
			if g > maxG {
				maxG = g
			}
			if g < minG {
				minG = g
			}
		}
	}
	// The potentials and reduced costs stay within a few k times the cost
	// span, so that span must be finite with room to spare.
	if !isFinite((maxG - minG) * float64(4*k+4)) {
		return nil, math.Inf(-1)
	}
	cost := grow(w.cost, k*m)
	for s := range gain {
		for c := 0; c < m; c++ {
			cost[s*m+c] = maxG - gain[s][c]
		}
	}
	// Potentials and matching (1-based sentinel style of the classic JV/
	// Hungarian shortest-path formulation).
	u := grow(w.u, k+1)
	v := grow(w.v, m+1)
	p := grow(w.p, m+1) // p[c] = row matched to column c (1-based), 0 = free
	way := grow(w.way, m+1)
	minv := grow(w.minv, m+1)
	used := grow(w.used, m+1)
	w.cost, w.u, w.v, w.p, w.way, w.minv, w.used = cost, u, v, p, way, minv, used
	clear(u)
	clear(v)
	clear(p)
	clear(way)
	for i := 1; i <= k; i++ {
		p[0] = i
		j0 := 0
		clear(used)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[(i0-1)*m+j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	assign := grow(w.row, k)
	w.row = assign
	var total float64
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
			total += gain[p[j]-1][j-1]
		}
	}
	return assign, total
}

// BestResponse computes user u's exact welfare-optimal reassignment against
// the rest of conf (items to slots via MaxAssignment) and applies it in
// place, returning the improvement in the *global* weighted objective.
//
// The per-(slot, item) gain uses the full pair weight τ(u,v,·)+τ(v,u,·):
// moving u in or out of a co-display changes both directions of every pair
// involving u, while pairs between other users are untouched, so the sum of
// these gains over u's row is exactly u's contribution to the objective and
// the move is monotone in total welfare (unlike a selfish reply, which can
// destroy neighbours' incoming utility). cap > 0 blocks (item, slot) units
// whose subgroup is already full without u.
func BestResponse(in *Instance, conf *Configuration, u int, cap int) float64 {
	var w assignWork
	return bestResponse(in, conf, u, cap, nil, &w)
}

// fillGains writes user u's best-response gains into gain (k×m): each cell
// (s,c) is (1−λ)·p(u,c) plus λ·(τ(u,v,c)+τ(v,u,c)) for every neighbour v
// showing c at slot s, added in Neighbors order. Walking the neighbours once
// and adding at each one's k items costs O(k·m + k·deg), not O(k·m·deg),
// and each cell still receives its terms in the same order.
func fillGains(in *Instance, conf *Configuration, u int, gain [][]float64) {
	lam := in.Lambda
	pref := in.Pref[u]
	for _, row := range gain {
		for c := range row {
			row[c] = (1 - lam) * pref[c]
		}
	}
	for _, v := range in.G.Neighbors(u) {
		out, back := in.tauRow(u, v), in.tauRow(v, u)
		for s, c := range conf.Assign[v] {
			if c == Unassigned {
				continue
			}
			var to, from float64
			if out != nil {
				to = out[c]
			}
			if back != nil {
				from = back[c]
			}
			gain[s][c] += lam * (to + from)
		}
	}
}

// bestResponse is BestResponse on the workspace w, with an optional
// maintained occupancy slice (counts[it*k+s] over ALL rows, ghosts included
// — the countsFor layout). With counts, the capped per-unit sizes are O(1)
// lookups instead of an O(n·k) rescan, and an applied move updates counts
// in place so the caller's incremental bookkeeping stays exact. counts ==
// nil falls back to scanning; cap == 0 ignores counts entirely.
func bestResponse(in *Instance, conf *Configuration, u int, cap int, counts []int, w *assignWork) float64 {
	k, m := in.K, in.NumItems
	gain := w.gains(k, m)
	fillGains(in, conf, u, gain)
	mine := conf.Assign[u]
	var before float64
	for s, c := range mine {
		if c != Unassigned {
			before += gain[s][c]
		}
	}
	if cap > 0 {
		// u's own row adds to a unit's occupancy only at u's incumbent units,
		// which are never blocked, so counting every row is the occupancy
		// without u wherever it matters.
		occ := counts
		if occ == nil {
			occ = grow(w.occ, m*k)
			w.occ = occ
			occupancy(occ, conf, k)
		}
		for s, row := range gain {
			for c := range row {
				if occ[c*k+s] >= cap && mine[s] != c {
					row[c] = capBlocked
				}
			}
		}
	}
	assign, after := w.solve(gain)
	if assign == nil {
		return 0
	}
	for s, c := range assign {
		if gain[s][c] <= capBlocked/2 {
			return 0 // no cap-feasible reply exists; keep the incumbent
		}
	}
	if after <= before+1e-12 {
		return 0 // keep the incumbent on ties and numerical noise
	}
	if cap > 0 && counts != nil {
		for s, c := range mine {
			if c != Unassigned {
				counts[c*k+s]--
			}
		}
		for s, c := range assign {
			counts[c*k+s]++
		}
	}
	copy(mine, assign)
	return after - before
}

// occupancy counts into dst, of length m·k, the rows showing each (item,
// slot) unit at dst[c*k+s]: the layout of a capped session's counts.
func occupancy(dst []int, conf *Configuration, k int) {
	clear(dst)
	for _, row := range conf.Assign {
		for s, c := range row {
			if c != Unassigned {
				dst[c*k+s]++
			}
		}
	}
}

// capBlocked is the sentinel gain of a display unit whose subgroup is full;
// finite so the assignment arithmetic stays NaN-free, yet dominated by any
// real utility.
const capBlocked = -1e12
