package lp

import (
	"context"
	"math"
	"slices"

	"github.com/svgic/svgic/internal/stats"
)

// Relaxation is the condensed SVGIC linear relaxation LP_SIMP of the paper
// (§4.4, Observation 2):
//
//	maximize   Σ_u Σ_c Pref[u][c]·x[u][c] + Σ_e Σ_c PairW[e][c]·y[e][c]
//	subject to Σ_c x[u][c] = K          for every user u
//	           0 ≤ x[u][c] ≤ 1
//	           y[e][c] ≤ min(x[u][c], x[v][c])
//
// Because PairW ≥ 0, the optimum always has y = min(x_u, x_v), so only the x
// block is represented explicitly. The per-(user,item,slot) utility factors of
// the full LP_SVGIC follow as x[u][c]/K (Observation 2).
//
// Pref and PairW already carry the λ weighting: Pref[u][c] = (1−λ)·p(u,c) and
// PairW[e][c] = λ·(τ(u,v,c)+τ(v,u,c)) for the social pair e = {u,v}.
type Relaxation struct {
	NumUsers int
	NumItems int
	K        int
	Pref     [][]float64 // [user][item], ≥ 0
	Pairs    [][2]int    // social pairs, u < v
	PairW    [][]float64 // [pair][item], ≥ 0

	adj [][]pairRef // built lazily: per user, incident pairs
}

type pairRef struct {
	pair  int
	other int
}

func (rx *Relaxation) buildAdj() {
	if rx.adj != nil {
		return
	}
	rx.adj = make([][]pairRef, rx.NumUsers)
	for i, p := range rx.Pairs {
		rx.adj[p[0]] = append(rx.adj[p[0]], pairRef{pair: i, other: p[1]})
		rx.adj[p[1]] = append(rx.adj[p[1]], pairRef{pair: i, other: p[0]})
	}
}

// Objective returns the LP_SIMP objective of the (feasible) point X.
func (rx *Relaxation) Objective(X [][]float64) float64 {
	var obj float64
	for u := 0; u < rx.NumUsers; u++ {
		pu := rx.Pref[u]
		xu := X[u]
		for c := 0; c < rx.NumItems; c++ {
			obj += pu[c] * xu[c]
		}
	}
	for e, p := range rx.Pairs {
		wu, wv := X[p[0]], X[p[1]]
		we := rx.PairW[e]
		for c := 0; c < rx.NumItems; c++ {
			obj += we[c] * min(wu[c], wv[c])
		}
	}
	return obj
}

// RelaxOptions tunes the structured solver.
type RelaxOptions struct {
	MaxPasses   int     // block-coordinate sweeps (default 40)
	PolishIters int     // projected-supergradient iterations (default 60; -1 disables)
	Tol         float64 // relative sweep-improvement stopping tolerance (default 1e-7)
	Seed        uint64  // RNG seed for sweep order and restarts
	Restarts    int     // extra random restarts (default 1 extra start)

	// Warm, when non-nil and dimensioned [NumUsers][NumItems], seeds the
	// block-coordinate ascent from this point (projected onto the capped
	// simplex) INSTEAD of the cold random restarts — the warm-start path for
	// drift repair, where the incumbent configuration's indicator point is
	// already near a good optimum and cold restarts would re-pay full
	// convergence cost. Ignored for mis-dimensioned input. The caller keeps
	// ownership; Solve copies before mutating.
	Warm [][]float64
}

func (o *RelaxOptions) fill() {
	if o.MaxPasses <= 0 {
		o.MaxPasses = 40
	}
	if o.PolishIters < 0 {
		o.PolishIters = 0
	} else if o.PolishIters == 0 {
		o.PolishIters = 60
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
}

// Solve maximizes the relaxation with exact per-user block-coordinate ascent
// (each block is a separable concave resource-allocation problem solved by a
// greedy over slope segments) followed by a projected-supergradient polish.
// It returns the best feasible point found and its objective — a valid
// β-approximate LP solution in the sense of Corollary 4.2 of the paper.
//
// ctx is checked once per block-coordinate pass and once per polish step:
// once it is done, Solve returns ctx.Err() and no point, so a deadline bounds
// the solve whatever MaxPasses, PolishIters and Restarts ask for.
func (rx *Relaxation) Solve(ctx context.Context, opts RelaxOptions) ([][]float64, float64, error) {
	opts.fill()
	rx.buildAdj()
	ws := rx.newWorkspace()
	r := stats.NewRand(opts.Seed + 0x51a7)

	var bestX [][]float64
	bestObj := math.Inf(-1)
	if warm := rx.warmPoint(opts.Warm, ws); warm != nil {
		// Warm start: ascend from the supplied point only. A near-optimal
		// seed converges in a couple of sweeps; running the cold restarts
		// too would throw the saving away.
		if err := rx.blockCoordinateAscent(ctx, warm, opts, r, ws); err != nil {
			return nil, 0, err
		}
		bestX, bestObj = warm, rx.Objective(warm)
	} else {
		// Each restart ascends in X; a better result swaps places with
		// bestX, and the next restart overwrites the loser.
		X := newMatrix(rx.NumUsers, rx.NumItems)
		bestX = newMatrix(rx.NumUsers, rx.NumItems)
		for restart := 0; restart < opts.Restarts+1; restart++ {
			rx.initialPoint(X, restart, ws)
			if err := rx.blockCoordinateAscent(ctx, X, opts, r, ws); err != nil {
				return nil, 0, err
			}
			if obj := rx.Objective(X); obj > bestObj {
				bestObj = obj
				bestX, X = X, bestX
			}
		}
	}
	if opts.PolishIters > 0 {
		return rx.polish(ctx, bestX, opts.PolishIters, ws)
	}
	return bestX, bestObj, nil
}

// workspace is the scratch one Solve call reuses across its restarts,
// sweeps, blocks and polish steps, so none of those loops allocates. It
// lives for that call only: the point Solve returns may be one of its
// matrices.
type workspace struct {
	segs  []segment   // solveBlock: slope segments of one user's row (cap m·(maxdeg+1))
	thr   []threshold // solveBlock: neighbour thresholds of one item (cap maxdeg)
	order []int       // block-coordinate sweep order
	proj  []float64   // projectCappedSimplex's sort buffer
	score []float64   // initialPoint: item scores of one user
	idx   []int       // initialPoint: items ranked by score
	grad  [][]float64 // polish: supergradient
	best  [][]float64 // polish: best iterate
}

func (rx *Relaxation) newWorkspace() *workspace {
	n, m := rx.NumUsers, rx.NumItems
	deg := 0
	for _, a := range rx.adj {
		deg = max(deg, len(a))
	}
	return &workspace{
		segs:  make([]segment, 0, m*(deg+1)),
		thr:   make([]threshold, 0, deg),
		order: make([]int, n),
		proj:  make([]float64, m),
		score: make([]float64, m),
		idx:   make([]int, m),
		grad:  newMatrix(n, m),
		best:  newMatrix(n, m),
	}
}

// warmPoint validates and feasibility-projects a caller-supplied warm-start
// point: nil unless warm is exactly [NumUsers][NumItems]; otherwise a clamped
// copy with every row projected onto the capped simplex Σ_c x = K, 0 ≤ x ≤ 1.
func (rx *Relaxation) warmPoint(warm [][]float64, ws *workspace) [][]float64 {
	if len(warm) != rx.NumUsers {
		return nil
	}
	for _, row := range warm {
		if len(row) != rx.NumItems {
			return nil
		}
	}
	X := newMatrix(rx.NumUsers, rx.NumItems)
	for u, row := range X {
		for c, x := range warm[u] {
			if math.IsNaN(x) || x < 0 {
				x = 0
			} else if x > 1 {
				x = 1
			}
			row[c] = x
		}
		projectCappedSimplex(row, float64(rx.K), ws.proj)
	}
	return X
}

// initialPoint overwrites X with a feasible start: restart 0 spreads the
// budget uniformly; later restarts concentrate it on the top-K preferred
// items with a uniform floor, which helps escape the symmetric stall points
// of the uniform start.
func (rx *Relaxation) initialPoint(X [][]float64, restart int, ws *workspace) {
	m, k := rx.NumItems, rx.K
	if restart == 0 || m == k {
		v := float64(k) / float64(m)
		for _, row := range X {
			for c := range row {
				row[c] = v
			}
		}
		return
	}
	score, idx := ws.score, ws.idx
	for u, row := range X {
		// Score items by preference plus total incident social weight so the
		// start already reflects shared interests.
		copy(score, rx.Pref[u])
		for _, pr := range rx.adj[u] {
			we := rx.PairW[pr.pair]
			for c := 0; c < m; c++ {
				score[c] += 0.5 * we[c]
			}
		}
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int {
			if score[a] > score[b] {
				return -1
			}
			if score[a] < score[b] {
				return 1
			}
			return 0
		})
		// 0.8 mass on each of the top-K items, the rest spread uniformly.
		const top = 0.8
		rest := (float64(k) - top*float64(k)) / float64(m)
		for c := range row {
			row[c] = rest
		}
		for i := 0; i < k; i++ {
			row[idx[i]] += top
		}
		projectCappedSimplex(row, float64(k), ws.proj)
	}
}

type segment struct {
	slope float64
	width float64
	coord int
	ord   int
}

// compareSegments orders the greedy fill: descending slope, ties resolved by
// (coord, ord) so lower segments of a coordinate always fill first.
func compareSegments(a, b segment) int {
	switch {
	case a.slope > b.slope:
		return -1
	case a.slope < b.slope:
		return 1
	case a.coord != b.coord:
		return a.coord - b.coord
	}
	return a.ord - b.ord
}

// threshold is one neighbour's pair term on an item: min(x, t) weighted w.
type threshold struct {
	t float64
	w float64
}

func (rx *Relaxation) blockCoordinateAscent(ctx context.Context, X [][]float64, opts RelaxOptions, r interface{ IntN(int) int }, ws *workspace) error {
	order := ws.order
	for i := range order {
		order[i] = i
	}
	prev := rx.Objective(X)
	for pass := 0; pass < opts.MaxPasses; pass++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := len(order) - 1; i > 0; i-- {
			j := r.IntN(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, u := range order {
			rx.solveBlock(u, X, ws)
		}
		cur := rx.Objective(X)
		if cur-prev <= opts.Tol*(1+math.Abs(cur)) {
			break
		}
		prev = cur
	}
	return nil
}

// solveBlock exactly maximizes the relaxation over user u's row with all
// other rows fixed: maximize Σ_c f_c(x_c) over the capped simplex, where
// each f_c is a piecewise-linear concave function with breakpoints at the
// neighbours' current values. Solved greedily over slope segments.
func (rx *Relaxation) solveBlock(u int, X [][]float64, ws *workspace) {
	m, k := rx.NumItems, rx.K
	segs := ws.segs[:0]
	for c := 0; c < m; c++ {
		base := rx.Pref[u][c]
		thr := ws.thr[:0]
		for _, pr := range rx.adj[u] {
			w := rx.PairW[pr.pair][c]
			if w <= 0 {
				continue
			}
			t := X[pr.other][c]
			if t > 1 {
				t = 1
			} else if t < 0 {
				t = 0
			}
			thr = append(thr, threshold{t: t, w: w})
		}
		slices.SortFunc(thr, func(a, b threshold) int {
			if a.t < b.t {
				return -1
			}
			if a.t > b.t {
				return 1
			}
			return 0
		})
		// Suffix sums give the slope of each segment: below threshold t_j the
		// pair term min(x, t_j) still grows with x and contributes w_j.
		suffix := 0.0
		for _, tw := range thr {
			suffix += tw.w
		}
		lo := 0.0
		ord := 0
		for _, tw := range thr {
			if tw.t > lo {
				segs = append(segs, segment{slope: base + suffix, width: tw.t - lo, coord: c, ord: ord})
				ord++
				lo = tw.t
			}
			suffix -= tw.w
		}
		if lo < 1 {
			segs = append(segs, segment{slope: base, width: 1 - lo, coord: c, ord: ord})
		}
	}
	slices.SortFunc(segs, compareSegments)
	row := X[u]
	for c := range row {
		row[c] = 0
	}
	budget := float64(k)
	for _, s := range segs {
		if budget <= 0 {
			break
		}
		take := s.width
		if take > budget {
			take = budget
		}
		row[s.coord] += take
		budget -= take
	}
	// Guard against drift: the greedy fills exactly k because total width is
	// m ≥ k, but accumulated rounding may leave an epsilon.
	if budget > 1e-9 {
		for c := range row {
			if row[c] < 1 {
				add := 1 - row[c]
				if add > budget {
					add = budget
				}
				row[c] += add
				budget -= add
				if budget <= 1e-12 {
					break
				}
			}
		}
	}
}

// polish runs projected supergradient ascent from X, which it overwrites,
// returning the best iterate seen (a workspace matrix) and its objective.
func (rx *Relaxation) polish(ctx context.Context, X [][]float64, iters int, ws *workspace) ([][]float64, float64, error) {
	n, m, k := rx.NumUsers, rx.NumItems, rx.K
	best, grad := ws.best, ws.grad
	for u := range X {
		copy(best[u], X[u])
	}
	bestObj := rx.Objective(X)
	// Step scale: a small fraction of the budget per coordinate magnitude.
	base := 0.25
	for t := 1; t <= iters; t++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		for u := range grad {
			copy(grad[u], rx.Pref[u])
		}
		for e, p := range rx.Pairs {
			xu, xv := X[p[0]], X[p[1]]
			gu, gv := grad[p[0]], grad[p[1]]
			we := rx.PairW[e]
			for c := 0; c < m; c++ {
				w := we[c]
				if w == 0 {
					continue
				}
				switch {
				case xu[c] < xv[c]:
					gu[c] += w
				case xu[c] > xv[c]:
					gv[c] += w
				default:
					gu[c] += w / 2
					gv[c] += w / 2
				}
			}
		}
		eta := base / math.Sqrt(float64(t))
		for u := 0; u < n; u++ {
			xu, gu := X[u], grad[u]
			var norm float64
			for c := 0; c < m; c++ {
				norm += gu[c] * gu[c]
			}
			if norm == 0 {
				continue
			}
			scale := eta / math.Sqrt(norm)
			for c := 0; c < m; c++ {
				xu[c] += scale * gu[c]
			}
			projectCappedSimplex(xu, float64(k), ws.proj)
		}
		if obj := rx.Objective(X); obj > bestObj {
			bestObj = obj
			for u := range X {
				copy(best[u], X[u])
			}
		}
	}
	return best, bestObj, nil
}

// BuildSimplexModel materializes LP_SIMP as an explicit Problem for the dense
// simplex: variables x[u][c] then y[e][c]. Intended for small models (tests
// and the exact IP pipeline); variable count is NumUsers·NumItems +
// len(Pairs)·NumItems.
func (rx *Relaxation) BuildSimplexModel() *Problem {
	n, m := rx.NumUsers, rx.NumItems
	nx := n * m
	ny := len(rx.Pairs) * m
	p := NewProblem(nx + ny)
	xv := func(u, c int) int { return u*m + c }
	yv := func(e, c int) int { return nx + e*m + c }
	for u := 0; u < n; u++ {
		for c := 0; c < m; c++ {
			p.SetObj(xv(u, c), rx.Pref[u][c])
		}
	}
	for e := range rx.Pairs {
		for c := 0; c < m; c++ {
			p.SetObj(yv(e, c), rx.PairW[e][c])
		}
	}
	for u := 0; u < n; u++ {
		idx := make([]int, m)
		coef := make([]float64, m)
		for c := 0; c < m; c++ {
			idx[c] = xv(u, c)
			coef[c] = 1
		}
		p.MustAddConstraint(idx, coef, EQ, float64(rx.K))
		for c := 0; c < m; c++ {
			p.MustAddConstraint([]int{xv(u, c)}, []float64{1}, LE, 1)
		}
	}
	for e, pr := range rx.Pairs {
		for c := 0; c < m; c++ {
			p.MustAddConstraint([]int{yv(e, c), xv(pr[0], c)}, []float64{1, -1}, LE, 0)
			p.MustAddConstraint([]int{yv(e, c), xv(pr[1], c)}, []float64{1, -1}, LE, 0)
		}
	}
	return p
}

// SolveExact solves LP_SIMP with the dense simplex and returns the x block
// reshaped to [user][item] plus the optimal objective. Use only for small
// models; the structured Solve is the scalable path.
func (rx *Relaxation) SolveExact() ([][]float64, float64, error) {
	sol, err := SolveSimplex(rx.BuildSimplexModel())
	if err != nil {
		return nil, 0, err
	}
	n, m := rx.NumUsers, rx.NumItems
	X := make([][]float64, n)
	for u := 0; u < n; u++ {
		X[u] = make([]float64, m)
		copy(X[u], sol.X[u*m:(u+1)*m])
	}
	return X, sol.Objective, nil
}

// newMatrix allocates an n×m matrix whose rows share one backing array.
func newMatrix(n, m int) [][]float64 {
	data := make([]float64, n*m)
	X := make([][]float64, n)
	for i := range X {
		X[i] = data[i*m : (i+1)*m : (i+1)*m]
	}
	return X
}
