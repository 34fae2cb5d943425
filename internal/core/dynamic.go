package core

import (
	"fmt"
	"math"
	"slices"
)

// FriendTie carries the per-item social utilities between a joining user and
// one standing friend: Out is τ(newcomer, friend, ·) — what the newcomer
// gains from co-viewing with the friend — and In is τ(friend, newcomer, ·).
// A nil slice means all-zero in that direction; a non-nil slice must have
// exactly NumItems entries of valid utilities (finite, non-negative, at most
// MaxUtility).
type FriendTie struct {
	Out []float64
	In  []float64
}

// FriendTies maps a standing user's id to the social ties a joining user
// declares toward them.
type FriendTies map[int]FriendTie

// DynamicSession supports the dynamic scenario of Extension F: users join
// and leave a running SAVG configuration without re-solving the whole
// instance. A joining user is admitted by an exact single-user best response
// against the standing configuration (the "partial LP + CSF into existing
// subgroups" step of the paper, realized as an assignment problem), and a
// bounded number of best-response passes over the affected neighbourhood
// restores local optimality after each event.
//
// The session owns a private deep copy of the instance: event application
// mutates utilities in place (Leave zeroes the departed user's rows), so
// sharing the caller's instance would silently corrupt it — and any engine
// cache entry fingerprinted from it.
//
// The weighted objective is maintained incrementally: every event folds its
// own O(affected-neighbourhood) delta into val, so Value is O(1) instead of
// a full Evaluate rescan. Resync recomputes from scratch and reports the
// accumulated drift — the checked fallback. Under a size cap the per-unit
// occupancy counts are maintained the same way instead of being rebuilt per
// event.
//
// Every event costs what it touches: a join appends the newcomer in place
// and a best response walks one user's neighbourhood, so neither grows with
// the session size.
//
// A DynamicSession is not safe for concurrent use; callers that serve one
// session from many goroutines (internal/session's manager) serialize event
// application themselves. Each session owns its assignment workspace.
type DynamicSession struct {
	in   *Instance
	conf *Configuration
	cap  int // SVGIC-ST subgroup size bound; 0 = none

	active []bool

	val    float64 // incrementally maintained Evaluate(in, conf).Weighted()
	counts []int   // incrementally maintained countsFor(); nil when cap == 0
	dirty  []bool  // users whose neighbourhood changed since the last repair
	comp   []int   // union-find parents over user rows (ghosts included)

	work assignWork // best-response gains and MaxAssignment buffers
}

// NewDynamicSession starts a session from a solved configuration. Both the
// instance and the configuration are deep-cloned; subsequent events never
// touch the caller's copies.
func NewDynamicSession(in *Instance, conf *Configuration, cap int) (*DynamicSession, error) {
	if err := conf.Validate(in); err != nil {
		return nil, err
	}
	active := make([]bool, in.NumUsers())
	for i := range active {
		active[i] = true
	}
	ds := &DynamicSession{in: in.Clone(), conf: conf.Clone(), cap: cap, active: active}
	ds.resetIncremental(false)
	return ds, nil
}

// RestoreDynamicSession rebuilds a session from persisted state: the
// instance and configuration as they stood at the persistence point, the
// SVGIC-ST cap, and the ids of the users active at that point — the one
// piece of session state NewDynamicSession cannot reconstruct, because a
// departed user's row stays in the instance (zeroed) after Leave. The
// durable session store uses it to reload snapshots; WAL-tail replay through
// the ordinary event path then brings the session back to its pre-crash
// state. Both the instance and the configuration are deep-cloned. The
// restored session starts fully dirty: the repair loop owes it one complete
// pass before delta re-solves may narrow to changed components.
func RestoreDynamicSession(in *Instance, conf *Configuration, cap int, activeIDs []int) (*DynamicSession, error) {
	if err := conf.Validate(in); err != nil {
		return nil, err
	}
	active := make([]bool, in.NumUsers())
	for _, u := range activeIDs {
		if u < 0 || u >= len(active) {
			return nil, fmt.Errorf("core: restored active id %d out of range [0,%d)", u, len(active))
		}
		if active[u] {
			return nil, fmt.Errorf("core: restored active id %d repeated", u)
		}
		active[u] = true
	}
	ds := &DynamicSession{in: in.Clone(), conf: conf.Clone(), cap: cap, active: active}
	ds.resetIncremental(true)
	return ds, nil
}

// resetIncremental rebuilds all incrementally maintained state from the
// instance and configuration as they stand: the value accumulator, the
// occupancy counts, the component partition, and the dirty flags.
func (ds *DynamicSession) resetIncremental(markDirty bool) {
	ds.val = Evaluate(ds.Instance(), ds.conf).Weighted()
	ds.counts = ds.countsFor()
	n := ds.in.NumUsers()
	ds.comp = make([]int, n)
	for i := range ds.comp {
		ds.comp[i] = i
	}
	for _, p := range ds.in.G.Pairs() {
		ds.union(p[0], p[1])
	}
	ds.dirty = make([]bool, n)
	if markDirty {
		for i := range ds.dirty {
			ds.dirty[i] = true
		}
	}
}

// find returns the union-find root of user u, compressing the path.
func (ds *DynamicSession) find(u int) int {
	r := u
	for ds.comp[r] != r {
		r = ds.comp[r]
	}
	for ds.comp[u] != r {
		ds.comp[u], u = r, ds.comp[u]
	}
	return r
}

func (ds *DynamicSession) union(a, b int) {
	ra, rb := ds.find(a), ds.find(b)
	if ra != rb {
		ds.comp[ra] = rb
	}
}

// Instance returns the session's current instance (live view, do not
// modify). Join leaves the social pairs' numbering to this call
// (graph.RenumberPairs), so a full Evaluate of the live view sums in the
// order a rebuilt instance would and has the same bits.
func (ds *DynamicSession) Instance() *Instance {
	ds.in.G.RenumberPairs()
	return ds.in
}

// Config returns the current configuration (live view, do not modify).
func (ds *DynamicSession) Config() *Configuration { return ds.conf }

// SizeCap returns the session's SVGIC-ST subgroup size bound (0 = none).
func (ds *DynamicSession) SizeCap() int { return ds.cap }

// ActiveUsers returns the ids of users currently in the store. Never nil,
// so an empty store serializes as [] on the session wire, not null.
func (ds *DynamicSession) ActiveUsers() []int {
	out := make([]int, 0, len(ds.active))
	for u, a := range ds.active {
		if a {
			out = append(out, u)
		}
	}
	return out
}

// NumActive returns the number of users currently in the store.
func (ds *DynamicSession) NumActive() int {
	n := 0
	for _, a := range ds.active {
		if a {
			n++
		}
	}
	return n
}

// validatePrefVector checks a caller-supplied utility vector at the event
// trust boundary: exact length, and every entry a valid utility (finite,
// non-negative, at most MaxUtility). Events reach sessions from untrusted
// JSON via the serving path, so the checks mirror Instance.Validate. what
// names the vector and is called only to build an error, so a valid vector
// costs no formatting.
func (ds *DynamicSession) validatePrefVector(vec []float64, what func() string) error {
	if len(vec) != ds.in.NumItems {
		return fmt.Errorf("core: %s has %d items, want %d", what(), len(vec), ds.in.NumItems)
	}
	for c, x := range vec {
		if err := checkUtility(x); err != nil {
			return fmt.Errorf("core: %s[%d]=%v %w", what(), c, x, err)
		}
	}
	return nil
}

// validateFriendTies checks every declared tie before Join mutates anything:
// friend ids must name ACTIVE users — a tie to a departed shopper would
// re-add social utility on edges Leave just zeroed, and the ghost's frozen
// assignment row would then earn phantom co-display value in Evaluate — and
// tie vectors must be nil or exactly NumItems long.
func (ds *DynamicSession) validateFriendTies(friends FriendTies) error {
	n := ds.in.NumUsers()
	for f, tie := range friends {
		if f < 0 || f >= n {
			return fmt.Errorf("core: friend id %d out of range [0,%d)", f, n)
		}
		if !ds.active[f] {
			return fmt.Errorf("core: friend %d is not active", f)
		}
		if tie.Out != nil {
			if err := ds.validatePrefVector(tie.Out, func() string { return fmt.Sprintf("τ out to friend %d", f) }); err != nil {
				return err
			}
		}
		if tie.In != nil {
			if err := ds.validatePrefVector(tie.In, func() string { return fmt.Sprintf("τ in from friend %d", f) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// contribution returns user u's additive share of the weighted objective:
// (1−λ)·preference over u's assigned units plus λ·PairSocial for every
// co-display with a neighbour. Each social pair involving u is counted once
// (PairSocial folds both τ directions), so adding or removing u's entire
// row changes the global objective by exactly this amount.
func (ds *DynamicSession) contribution(u int) float64 {
	lam := ds.in.Lambda
	var c float64
	for s, it := range ds.conf.Assign[u] {
		if it == Unassigned {
			continue
		}
		c += (1 - lam) * ds.in.Pref[u][it]
		for _, v := range ds.in.G.Neighbors(u) {
			if v != u && ds.conf.Assign[v][s] == it {
				c += lam * ds.in.PairSocial(u, v, it)
			}
		}
	}
	return c
}

// respond takes user u's exact best response and folds its global objective
// delta into the value accumulator (and, under a cap, the occupancy counts).
func (ds *DynamicSession) respond(u int) float64 {
	gain := bestResponse(ds.in, ds.conf, u, ds.cap, ds.counts, &ds.work)
	ds.val += gain
	return gain
}

// Join adds a user with the given preferences and friend ties and admits
// them with an exact best response, returning the new user's id. All inputs
// are validated (and copied) before any session state changes, so a failed
// Join leaves the session exactly as it was. Under a size cap, Join fails
// when no complete row for the newcomer fits within the cap.
//
// The newcomer is appended in place: their vertex, their mutual edges in
// ascending friend order, their τ vectors, preference row and assignment
// row. Nothing else is copied or rebuilt, so a join's cost depends on k, m
// and its friends' degrees, not on the session size. The grown graph has the
// adjacency orders a rebuild of the whole instance would give it
// (graph.AddVertex), so every float summation downstream keeps its bits
// and a WAL replay of the same events reproduces the live session exactly.
func (ds *DynamicSession) Join(pref []float64, friends FriendTies) (int, error) {
	if err := ds.validatePrefVector(pref, func() string { return "joining user's preferences" }); err != nil {
		return 0, err
	}
	if err := ds.validateFriendTies(friends); err != nil {
		return 0, err
	}
	fallback, err := ds.capRow()
	if err != nil {
		return 0, err
	}
	fids := make([]int, 0, len(friends))
	for f := range friends {
		fids = append(fids, f)
	}
	slices.Sort(fids)
	nu := ds.in.appendUser(pref, fids)
	for _, f := range fids {
		ds.in.setTauRow(nu, f, friends[f].Out)
		ds.in.setTauRow(f, nu, friends[f].In)
	}
	row := make([]int, ds.in.K)
	for s := range row {
		row[s] = Unassigned
	}
	ds.conf.Assign = append(ds.conf.Assign, row)
	ds.active = append(ds.active, true)
	// Every standing row and utility is untouched, so val carries over; only
	// the component partition grows.
	ds.comp = append(ds.comp, nu)
	ds.dirty = append(ds.dirty, true)
	for _, f := range fids {
		ds.union(nu, f)
		ds.dirty[f] = true
	}
	// Admit: fill the newcomer's slots greedily, then take the exact best
	// response, then let the direct friends react once. The newcomer's filled
	// row is their whole contribution — everyone else's row is unchanged.
	ds.fillRow(nu, fallback)
	ds.val += ds.contribution(nu)
	ds.respond(nu)
	for _, f := range fids {
		ds.respond(f)
	}
	return nu, nil
}

// capRow checks, before a join changes anything, that a newcomer can get a
// complete row within the size cap: it solves the assignment problem
// bestResponse solves, over the occupancy counts with every free unit worth
// the same. It returns such a row for fillRow to fall back to, or an error
// when there is none; nil, nil when the session has no cap.
func (ds *DynamicSession) capRow() ([]int, error) {
	if ds.cap <= 0 {
		return nil, nil
	}
	k, m := ds.in.K, ds.in.NumItems
	gain := ds.work.gains(k, m)
	for s, row := range gain {
		for c := range row {
			row[c] = 0
			if ds.counts[c*k+s] >= ds.cap {
				row[c] = capBlocked
			}
		}
	}
	assign, _ := ds.work.solve(gain)
	for s, c := range assign {
		if gain[s][c] <= capBlocked/2 {
			assign = nil
			break
		}
	}
	if assign == nil {
		return nil, fmt.Errorf("core: no complete row fits the size cap %d for a joining user", ds.cap)
	}
	return slices.Clone(assign), nil
}

// fillRow fills the newcomer nu's empty row slot by slot with the feasible
// item of the largest gain — (1−λ)·p(nu,c) plus λ·(τ(nu,f,c)+τ(f,nu,c)) for
// every friend f showing c at that slot, ties to the smaller item — skipping
// items the row already holds and units at the cap. Should a slot have no
// feasible item left, nu takes fallback, capRow's complete in-cap row.
func (ds *DynamicSession) fillRow(nu int, fallback []int) {
	k := ds.in.K
	gain := ds.work.gains(k, ds.in.NumItems)
	fillGains(ds.in, ds.conf, nu, gain)
	row := ds.conf.Assign[nu]
	for s := range row {
		best, bestGain := -1, -1.0
		for c, g := range gain[s] {
			if slices.Contains(row[:s], c) || (ds.cap > 0 && ds.counts[c*k+s] >= ds.cap) {
				continue
			}
			if g > bestGain {
				best, bestGain = c, g
			}
		}
		if best < 0 {
			// A dead end, possible only under a cap: earlier picks took the
			// only items below it at slot s.
			for s2, c := range row[:s] {
				ds.counts[c*k+s2]--
			}
			copy(row, fallback)
			for s2, c := range row {
				ds.counts[c*k+s2]++
			}
			return
		}
		row[s] = best
		if ds.counts != nil {
			ds.counts[best*k+s]++
		}
	}
}

// Leave removes a user from the session: their row keeps its items (they are
// gone from the store, so it no longer matters) but they stop contributing
// utility, and their former friends rebalance with one best-response pass.
// The frozen row stays in the occupancy counts — it still blocks capped
// units, exactly as countsFor would rebuild it. The departed user's
// preference row and the τ vectors on their edges are zeroed in place.
func (ds *DynamicSession) Leave(u int) error {
	if u < 0 || u >= len(ds.active) || !ds.active[u] {
		return fmt.Errorf("core: user %d is not active", u)
	}
	ds.active[u] = false
	friends := ds.in.G.Neighbors(u)
	// The departed user's entire share of the objective vanishes with their
	// utilities; fold it out before zeroing them.
	ds.val -= ds.contribution(u)
	// Zero the departed user's utilities so evaluation and best responses
	// ignore them.
	clear(ds.in.Pref[u])
	for _, v := range friends {
		ds.in.zeroTau(u, v)
	}
	ds.dirty[u] = true
	for _, v := range friends {
		ds.dirty[v] = true
		if ds.active[v] {
			ds.respond(v)
		}
	}
	return nil
}

// UpdatePreference replaces an active user's preference vector and reacts
// with the exact best response for that user plus one pass over their direct
// friends — the in-store counterpart of Join's admission step, for shoppers
// whose interests shift mid-session. The vector is copied; it returns the
// total best-response improvement in the weighted objective.
func (ds *DynamicSession) UpdatePreference(u int, pref []float64) (float64, error) {
	if u < 0 || u >= len(ds.active) || !ds.active[u] {
		return 0, fmt.Errorf("core: user %d is not active", u)
	}
	if err := ds.validatePrefVector(pref, func() string { return fmt.Sprintf("user %d's preferences", u) }); err != nil {
		return 0, err
	}
	// Only u's preference terms move; the social terms are untouched.
	var d float64
	for _, it := range ds.conf.Assign[u] {
		if it != Unassigned {
			d += pref[it] - ds.in.Pref[u][it]
		}
	}
	ds.val += (1 - ds.in.Lambda) * d
	copy(ds.in.Pref[u], pref)
	ds.dirty[u] = true
	gain := ds.respond(u)
	for _, v := range ds.in.G.Neighbors(u) {
		if ds.active[v] {
			ds.dirty[v] = true
			gain += ds.respond(v)
		}
	}
	return gain, nil
}

// Rebalance runs best-response passes over all active users until no user
// improves or maxPasses is reached, returning the total improvement. This is
// the local-search step of Extension F. Rebalance does not mark users dirty:
// it only moves the configuration along the same best-response dynamics the
// repair solver would, without changing the instance.
func (ds *DynamicSession) Rebalance(maxPasses int) float64 {
	var total float64
	for pass := 0; pass < maxPasses; pass++ {
		var improved float64
		for u, a := range ds.active {
			if a {
				improved += ds.respond(u)
			}
		}
		total += improved
		if improved <= 1e-12 {
			break
		}
	}
	return total
}

// Adopt atomically replaces the session's configuration with a full
// re-solve's result — the drift-repair swap: a background solver beat the
// incrementally maintained configuration, so the session jumps to the better
// one without replaying events. The configuration is validated against the
// session's current instance and deep-cloned. The accumulator and counts are
// rebuilt from scratch (the new configuration shares nothing with the old),
// and every user is marked dirty: an out-of-band configuration change is
// exactly the event the repair loop must not skip.
func (ds *DynamicSession) Adopt(conf *Configuration) error {
	if err := conf.Validate(ds.in); err != nil {
		return fmt.Errorf("core: adopting configuration: %w", err)
	}
	ds.conf = conf.Clone()
	ds.val = Evaluate(ds.Instance(), ds.conf).Weighted()
	ds.counts = ds.countsFor()
	for i := range ds.dirty {
		ds.dirty[i] = true
	}
	return nil
}

// Value returns the current weighted SVGIC objective over active users. It
// reads the incrementally maintained accumulator — O(1), not a rescan; the
// differential fuzz suite pins it to Evaluate within 1e-9, and Resync is the
// checked full recompute.
func (ds *DynamicSession) Value() float64 {
	return ds.val
}

// SeedValue overwrites the value accumulator with an externally persisted
// value — the exact weighted objective a live session served before it was
// snapshotted. Recovery needs bit-identical values (the incremental
// accumulator and a cold Evaluate can differ in final ulps), so the durable
// layers seed the logged value instead of recomputing. The seed is sanity-
// checked against a full Evaluate to catch corrupt or mismatched state.
func (ds *DynamicSession) SeedValue(v float64) error {
	full := Evaluate(ds.Instance(), ds.conf).Weighted()
	tol := 1e-6 * math.Max(1, math.Abs(full))
	if !isFinite(v) || math.Abs(v-full) > tol {
		return fmt.Errorf("core: seeded value %g disagrees with evaluated %g", v, full)
	}
	ds.val = v
	return nil
}

// Resync recomputes the value accumulator and occupancy counts from scratch
// and returns the absolute drift the incremental bookkeeping had accumulated
// — the checked fallback for callers that want to bound floating-point creep
// on very long event streams.
func (ds *DynamicSession) Resync() float64 {
	full := Evaluate(ds.Instance(), ds.conf).Weighted()
	drift := math.Abs(ds.val - full)
	ds.val = full
	ds.counts = ds.countsFor()
	return drift
}

// DirtyComponents returns the active membership of every connected component
// touched by an event since the last ClearDirty, each sorted ascending and
// the groups ordered by smallest member. The partition is maintained as a
// grow-only union-find over the social graph: Join unions the newcomer with
// their friends; Leave keeps the coarser partition (a conservative
// over-approximation — a component a departure actually split re-solves as
// one until the next full repair). An empty result means no event changed
// the instance since the last repair.
func (ds *DynamicSession) DirtyComponents() [][]int {
	dirtyRoots := make(map[int]bool)
	for u, d := range ds.dirty {
		if d {
			dirtyRoots[ds.find(u)] = true
		}
	}
	if len(dirtyRoots) == 0 {
		return nil
	}
	groups := make(map[int][]int)
	var order []int
	for u, a := range ds.active {
		if !a {
			continue
		}
		r := ds.find(u)
		if !dirtyRoots[r] {
			continue
		}
		if _, ok := groups[r]; !ok {
			order = append(order, r) // first member is smallest: u ascends
		}
		groups[r] = append(groups[r], u)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// ClearDirty resets the dirty flags after a completed repair pass.
func (ds *DynamicSession) ClearDirty() {
	for i := range ds.dirty {
		ds.dirty[i] = false
	}
}

func (ds *DynamicSession) countsFor() []int {
	if ds.cap <= 0 {
		return nil
	}
	counts := make([]int, ds.in.NumItems*ds.in.K)
	occupancy(counts, ds.conf, ds.in.K)
	return counts
}
