package session

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/engine"
)

// Errors of the serving contract. The HTTP layer maps ErrLimit to 429,
// ErrNotFound to 404 and ErrClosed to 503.
var (
	ErrLimit    = errors.New("session: session limit reached")
	ErrNotFound = errors.New("session: no such session")
	ErrClosed   = errors.New("session: manager closed")
)

// Defaults for Options zero values.
const (
	DefaultMaxSessions  = 1024
	DefaultRepairMargin = 0.01
)

// repairTimeout bounds each drift-repair solve.
const repairTimeout = 30 * time.Second

// Options configures a Manager.
type Options struct {
	// Engine runs the initial solve of every session and the drift-repair
	// re-solves. Required; the manager does not own it — close the manager
	// first, then the engine.
	Engine *engine.Engine
	// MaxSessions bounds concurrently live sessions; Create beyond the bound
	// fails with ErrLimit. Zero means DefaultMaxSessions.
	MaxSessions int
	// TTL evicts sessions idle (no events, no reads) for longer than this.
	// Zero disables eviction (a per-session CreateSpec.TTL override still
	// evicts that session).
	TTL time.Duration
	// RepairInterval is the period of the background drift-repair loop: each
	// tick re-solves every session's current instance through the engine and
	// swaps the result in when it clears the margin. Zero disables the loop
	// (RepairAll can still be called directly).
	RepairInterval time.Duration
	// RepairMargin is the relative improvement a full re-solve must show
	// over the incremental configuration to be swapped in: swap when
	// resolved > current·(1+margin). Zero means DefaultRepairMargin;
	// negative means swap on any strict improvement.
	RepairMargin float64
	// Persister receives durability hooks for every session transition
	// (internal/store implements it over a write-ahead log + snapshots).
	// Nil keeps sessions purely in memory — a restart discards them.
	Persister Persister
	// SnapshotEvery is the snapshot cadence: a full-state image is cut (and
	// the persister may compact the log behind it) every this many applied
	// transitions per session. Zero means DefaultSnapshotEvery; negative
	// disables periodic cuts (the creation snapshot still happens). Ignored
	// without a Persister.
	SnapshotEvery int
	// Seed seeds the random tail of generated session ids, making id
	// sequences reproducible for tests and seeded workloads. Zero draws a
	// one-off seed from crypto/rand — unguessable ids, explicitly not
	// derived from the clock or the global math/rand source.
	Seed uint64
	// RepairObserver, when set, receives the wall time of every drift-repair
	// cycle that got past the version check and did repair work (delta or
	// whole; version-unchanged skips are not observed). Called synchronously
	// on the repair goroutine, so it must be cheap and safe for concurrent
	// use; svgicd wires it into the telemetry tracker's "repair" series.
	RepairObserver func(d time.Duration)
}

// Stats is a snapshot of the manager's counters, aggregated over all
// sessions that ever lived (deleting a session does not erase its event
// counts). Live is the session table's size, read under the table lock, and
// EventsApplied is the sum of the four per-kind event counts; the rest are
// atomic counters. The metric tags name svgicd's /metrics families.
type Stats struct {
	Live     int    `json:"live" metric:"svgicd_sessions_live" help:"Live sessions."`
	Created  uint64 `json:"created" metric:"svgicd_sessions_created_total" help:"Sessions created."`
	Restored uint64 `json:"restored,omitempty" metric:"svgicd_sessions_restored_total" help:"Sessions recovered from the durable store at startup."`
	Rejected uint64 `json:"rejected" metric:"svgicd_sessions_rejected_total" help:"Session creates refused at the bound."`
	Evicted  uint64 `json:"evicted" metric:"svgicd_sessions_evicted_total" help:"Idle sessions evicted by the TTL sweep."`
	Deleted  uint64 `json:"deleted" metric:"svgicd_sessions_deleted_total" help:"Sessions explicitly deleted."`

	EventsApplied uint64 `json:"eventsApplied"`
	Joins         uint64 `json:"joins" metric:"svgicd_session_events_total,kind=join" help:"Applied live-session events by kind."`
	Leaves        uint64 `json:"leaves" metric:"svgicd_session_events_total,kind=leave"`
	Updates       uint64 `json:"updates" metric:"svgicd_session_events_total,kind=updatePreference"`
	Rebalances    uint64 `json:"rebalances" metric:"svgicd_session_events_total,kind=rebalance"`

	RepairRuns   uint64 `json:"repairRuns" metric:"svgicd_repair_runs_total" help:"Drift-repair re-solves attempted."`
	RepairSwaps  uint64 `json:"repairSwaps" metric:"svgicd_repair_swaps_total" help:"Drift repairs adopted over the incremental configuration."`
	RepairKeeps  uint64 `json:"repairKeeps" metric:"svgicd_repair_keeps_total" help:"Drift repairs that kept the incremental configuration."`
	RepairStale  uint64 `json:"repairStale" metric:"svgicd_repair_stale_total" help:"Drift repairs discarded as stale."` // events raced the re-solve
	RepairErrors uint64 `json:"repairErrors" metric:"svgicd_repair_errors_total" help:"Drift repairs that failed or timed out."`

	RepairSkips uint64 `json:"repairSkips"` // cycles skipped: session unchanged since its last repair
	RepairWarm  uint64 `json:"repairWarm"`  // repair solves seeded from the incumbent configuration
	RepairCold  uint64 `json:"repairCold"`  // repair solves run cold
}

// Manager is the concurrency-safe registry of live sessions: one table of
// sessions under one lock, plus one background goroutine for TTL eviction
// and drift repair. Create with NewManager, release with Close. All methods
// are safe for concurrent use.
//
// Lock rules: mu guards only the table and the closed flag. A session's own
// lock is never taken while mu is held (EvictIdle and RepairAll copy the
// session list first), and no solver call or Persister hook runs under mu.
type Manager struct {
	eng            *engine.Engine
	maxSessions    int
	ttl            time.Duration
	repairMargin   float64
	persister      Persister
	snapshotEvery  int
	repairObserver func(d time.Duration)

	now func() time.Time // test seam; time.Now in production

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool

	// minTTL is the tightest positive effective TTL (nanoseconds) carried by
	// any session ever admitted; the loop derives its eviction cadence from
	// it. wake nudges the loop to re-arm when a session with a tighter TTL
	// override arrives (a manager with TTL zero starts with no eviction
	// ticker at all — the first override session creates it).
	minTTL atomic.Int64
	wake   chan struct{}

	idc atomic.Uint64

	// idRand supplies the random tail of session ids from an explicit seed
	// (Options.Seed, or one drawn once from crypto/rand). idMu guards it:
	// *rand.Rand is not concurrency-safe.
	idMu   sync.Mutex
	idRand *rand.Rand

	// repairSem bounds in-flight repair solves manager-wide, so a manual
	// RepairAll racing the loop's cycle cannot double the load.
	repairSem chan struct{}

	created, restored, rejected, evicted, deleted atomic.Uint64
	joins, leaves, updates, rebals                atomic.Uint64
	repRuns, repSwaps, repKeeps, repStale         atomic.Uint64
	repErrors, repSkips, repWarm, repCold         atomic.Uint64

	ctx       context.Context // canceled by Close; bounds repair solves
	cancel    context.CancelFunc
	done      chan struct{}
	wg        sync.WaitGroup
	creating  sync.WaitGroup // in-flight CreateWith calls; Close waits them out
	closeOnce sync.Once
}

// NewManager starts a session manager over an engine, with its background
// goroutine driving the eviction sweep and drift-repair cycle until Close.
func NewManager(opts Options) (*Manager, error) {
	if opts.Engine == nil {
		return nil, errors.New("session: Options.Engine is required")
	}
	m := &Manager{
		eng:            opts.Engine,
		maxSessions:    opts.MaxSessions,
		ttl:            opts.TTL,
		repairMargin:   opts.RepairMargin,
		persister:      opts.Persister,
		snapshotEvery:  opts.SnapshotEvery,
		repairObserver: opts.RepairObserver,
		now:            time.Now,
		sessions:       make(map[string]*Session),
		wake:           make(chan struct{}, 1),
		repairSem:      make(chan struct{}, repairConcurrency),
		done:           make(chan struct{}),
	}
	if m.snapshotEvery == 0 {
		m.snapshotEvery = DefaultSnapshotEvery
	}
	if m.maxSessions <= 0 {
		m.maxSessions = DefaultMaxSessions
	}
	if m.repairMargin == 0 {
		m.repairMargin = DefaultRepairMargin
	}
	if m.ttl > 0 {
		m.minTTL.Store(int64(m.ttl))
	}
	seed := opts.Seed
	if seed == 0 {
		var buf [8]byte
		if _, err := crand.Read(buf[:]); err != nil {
			return nil, fmt.Errorf("session: seeding id source: %w", err)
		}
		seed = binary.LittleEndian.Uint64(buf[:])
	}
	m.idRand = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	//lint:ignore ctxthread manager-lifecycle root context, canceled by Close; serving calls thread their own ctx and repair solves derive from this one so Close cancels them
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.wg.Add(1)
	go m.loop(opts.RepairInterval)
	return m, nil
}

// Close stops the background goroutine, cancels any in-flight repair solve
// and closes every session. Idempotent. The engine stays open — it belongs
// to the caller.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		m.mu.Lock()
		m.closed = true
		victims := make([]*Session, 0, len(m.sessions))
		for _, s := range m.sessions {
			victims = append(victims, s)
		}
		clear(m.sessions)
		m.mu.Unlock()
		m.cancel()
		// Wait out in-flight creates: each either inserted before the table
		// was emptied (its session is among the victims) or will fail the
		// insert re-check and tombstone its creation image — both must
		// finish before the caller may close the persister's store.
		m.creating.Wait()
		close(m.done)
		m.wg.Wait()
		for _, s := range victims {
			// Shutdown is not a tombstone: the sessions' durable state must
			// survive the restart, so close with no end reason (pending
			// persist ops still flush).
			s.close("")
		}
	})
}

// newID mints a session id: a monotone sequence number plus random tail, so
// ids are unguessable enough not to collide across restarts yet still sort
// by creation order within one process. The tail comes from the manager's
// seeded source, never the global one, so a fixed Options.Seed reproduces
// the exact id sequence.
func (m *Manager) newID() string {
	m.idMu.Lock()
	tail := m.idRand.Uint32()
	m.idMu.Unlock()
	return fmt.Sprintf("s%06d-%08x", m.idc.Add(1), tail)
}

// CreateSpec is the one session-creation surface: everything optional about
// a new session in a single value.
type CreateSpec struct {
	// Solver backs the initial solve and every drift repair; nil means the
	// engine's default solver.
	Solver core.Solver
	// SizeCap > 0 enforces the SVGIC-ST subgroup bound on event application;
	// pass a Solver parameterized with the same cap so drift repair solves
	// the same capped problem.
	SizeCap int
	// Ref is the registry identity of Solver, persisted so a recovery path
	// can re-resolve it (see SolverRef). Only meaningful with a Persister.
	Ref SolverRef
	// TTL > 0 overrides the manager-wide idle TTL for this session alone —
	// it is evicted after this long idle even on a manager whose Options.TTL
	// is zero. The override survives crash recovery (it travels in State).
	TTL time.Duration
}

// CreateWith solves the instance through the engine and registers a live
// session seeded with the solution, per spec. The instance is deep-cloned
// into the session; the caller's copy is never mutated. Returns the new
// session's snapshot together with the initial Solution. When the manager
// has a Persister, the new session's full state is persisted (as its
// creation snapshot) before the session becomes reachable, so the durable
// log never sees an event for a session it has not seen born.
func (m *Manager) CreateWith(ctx context.Context, in *core.Instance, spec CreateSpec) (Snapshot, *core.Solution, error) {
	// The creating group is joined under the same lock that checked closed,
	// so Close (which sets closed first, then waits on the group) always
	// waits out this call — otherwise a create's persisted creation image
	// could land before Store.Close while its abort tombstone lands after,
	// and the next restart would recover a session no client was ever told
	// about. The admission check here is advisory — it only saves a solve
	// for a session that cannot be registered; the binding check is at
	// insert.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Snapshot{}, nil, ErrClosed
	}
	if len(m.sessions) >= m.maxSessions {
		m.mu.Unlock()
		m.rejected.Add(1)
		return Snapshot{}, nil, ErrLimit
	}
	m.creating.Add(1)
	m.mu.Unlock()
	defer m.creating.Done()

	sol, err := m.eng.SolveWith(ctx, in, spec.Solver)
	if err != nil {
		return Snapshot{}, nil, err
	}
	ds, err := core.NewDynamicSession(in, sol.Config, spec.SizeCap)
	if err != nil {
		return Snapshot{}, nil, err
	}
	now := m.now()
	s := &Session{
		algo:          sol.Algorithm,
		ref:           spec.Ref,
		solver:        spec.Solver,
		sizeCap:       spec.SizeCap,
		ttl:           spec.TTL,
		persist:       m.persister,
		snapshotEvery: m.snapshotEvery,
		ds:            ds,
		value:         ds.Value(),
		created:       now,
		lastTouch:     now,
		lastRepair:    noRepairYet,
	}
	// Mint an id free of collisions. Minted ids carry a random tail and a
	// monotone sequence (so two racing creates can never mint the same one);
	// the table check guards against colliding with a session RESTORED from
	// a previous process epoch, whose log a reused id would silently fuse
	// with. Restores all happen before serving starts, so an id checked free
	// here is still free at insert below.
	for {
		s.id = m.newID()
		m.mu.Lock()
		_, taken := m.sessions[s.id]
		m.mu.Unlock()
		if !taken {
			break
		}
	}
	if m.persister != nil {
		// The session is not reachable yet, so the creation image
		// happens-before every later hook for this id.
		m.persister.SessionCreated(s.stateLocked())
	}
	// A failure between the creation image and the insert must tombstone the
	// image, or a restart would recover a session that was never reachable.
	abort := func() {
		if m.persister != nil {
			m.persister.SessionEnded(s.id, EndDeleted)
		}
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		abort()
		return Snapshot{}, nil, ErrClosed
	}
	if len(m.sessions) >= m.maxSessions {
		m.mu.Unlock()
		m.rejected.Add(1)
		abort()
		return Snapshot{}, nil, ErrLimit
	}
	m.sessions[s.id] = s
	m.mu.Unlock()
	m.created.Add(1)
	m.noteTTL(spec.TTL)
	snap, err := s.snapshot(now, false)
	return snap, sol, err
}

// get looks a session up. ErrClosed once Close has begun; ErrNotFound for
// ids never created, deleted or evicted.
func (m *Manager) get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	s, ok := m.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// Apply runs an event batch against a session, serialized with every other
// batch and drift-repair swap on that session. See Session.apply for batch
// semantics.
func (m *Manager) Apply(id string, events []Event) (ApplyResult, error) {
	s, err := m.get(id)
	if err != nil {
		return ApplyResult{}, err
	}
	res, err := s.apply(m.now(), events)
	for _, r := range res.Results {
		switch r.Type {
		case EventJoin:
			m.joins.Add(1)
		case EventLeave:
			m.leaves.Add(1)
		case EventUpdatePreference:
			m.updates.Add(1)
		case EventRebalance:
			m.rebals.Add(1)
		}
	}
	return res, err
}

// Snapshot returns a point-in-time copy of a session's state and refreshes
// its idle clock.
func (m *Manager) Snapshot(id string) (Snapshot, error) {
	s, err := m.get(id)
	if err != nil {
		return Snapshot{}, err
	}
	return s.snapshot(m.now(), true)
}

// Delete removes a session. Idempotent at the HTTP layer's discretion — a
// second delete returns ErrNotFound.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	m.deleted.Add(1)
	s.close(EndDeleted)
	return nil
}

// MaxSessions returns the admission bound on live sessions.
func (m *Manager) MaxSessions() int { return m.maxSessions }

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// list copies the table's sessions, so sweeps can take each session's lock
// without holding the table lock. Nil once the manager is closed.
func (m *Manager) list() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	return out
}

// noteTTL records a session's positive effective TTL and wakes the loop when
// it tightens the minimum, so the eviction cadence follows the tightest TTL
// actually present instead of only the manager default.
func (m *Manager) noteTTL(ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	for {
		cur := m.minTTL.Load()
		if cur > 0 && cur <= int64(ttl) {
			return
		}
		if m.minTTL.CompareAndSwap(cur, int64(ttl)) {
			select {
			case m.wake <- struct{}{}:
			default: // a wake is already pending; the loop re-reads minTTL
			}
			return
		}
	}
}

// loop is the manager's background goroutine: it schedules the drift-repair
// cycles and TTL eviction sweeps. The eviction ticker is created lazily from
// the observed minimum TTL (a quarter of it, floored at 10ms) and tightened —
// never loosened — when a shorter-TTL session arrives; a manager with no TTL
// anywhere runs no eviction ticker at all. Repair cycles run off the loop
// goroutine so a slow cycle (many sessions × solve time) never starves
// eviction ticks; a tick that arrives while the previous cycle is still
// running is skipped rather than queued.
func (m *Manager) loop(repairInterval time.Duration) {
	defer m.wg.Done()
	var repairC <-chan time.Time
	if repairInterval > 0 {
		t := time.NewTicker(repairInterval)
		defer t.Stop()
		repairC = t.C
	}
	var (
		evictT  *time.Ticker
		evictC  <-chan time.Time
		evictIv time.Duration
	)
	defer func() {
		if evictT != nil {
			evictT.Stop()
		}
	}()
	rearm := func() {
		ttl := time.Duration(m.minTTL.Load())
		if ttl <= 0 {
			return
		}
		iv := ttl / 4
		if iv < 10*time.Millisecond {
			iv = 10 * time.Millisecond
		}
		switch {
		case evictT == nil:
			evictT = time.NewTicker(iv)
			evictC = evictT.C
			evictIv = iv
		case iv < evictIv:
			evictT.Reset(iv)
			evictIv = iv
		}
	}
	rearm()
	repairing := make(chan struct{}, 1)
	for {
		select {
		case <-m.done:
			return
		case <-repairC:
			select {
			case repairing <- struct{}{}:
				m.wg.Add(1)
				go func() {
					defer m.wg.Done()
					defer func() { <-repairing }()
					m.RepairAll(m.ctx)
				}()
			default: // previous cycle still in flight
			}
		case <-m.wake:
			rearm()
		case <-evictC:
			m.EvictIdle()
		}
	}
}

// EvictIdle removes the sessions idle longer than their effective TTL (the
// session's own override when set, the manager default otherwise), returning
// how many were evicted. The background loop calls it periodically; it is
// exported for tests and manual sweeps.
//
// Session locks are never taken while holding the table lock: a sweep
// blocking on one session's long event batch under m.mu would stall every
// operation. Idleness is checked lock-by-lock on a copy of the table;
// confirmed candidates are then removed under m.mu by identity alone. A
// session touched in the narrow window between its idleness check and
// removal can be evicted anyway — it had been idle for a full TTL moments
// earlier, which is within the eviction contract — and an event batch
// already in flight on a victim completes normally before close() lands.
func (m *Manager) EvictIdle() int {
	now := m.now()
	var candidates []*Session
	for _, s := range m.list() {
		ttl := s.ttl // immutable after publication
		if ttl <= 0 {
			ttl = m.ttl
		}
		if ttl <= 0 {
			continue // never evicted
		}
		cutoff := now.Add(-ttl)
		s.mu.Lock()
		idle := !s.closed && s.lastTouch.Before(cutoff)
		s.mu.Unlock()
		if idle {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return 0
	}

	var victims []*Session
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0
	}
	for _, s := range candidates {
		if m.sessions[s.id] != s {
			continue // deleted or replaced meanwhile
		}
		delete(m.sessions, s.id)
		victims = append(victims, s)
	}
	m.mu.Unlock()
	for _, s := range victims {
		// The eviction tombstone is part of the eviction, not an
		// afterthought: a TTL-evicted id whose WAL survived a restart would
		// resurrect as a live session the client believed gone.
		s.close(EndEvicted)
		m.evicted.Add(1)
	}
	return len(victims)
}

// repairConcurrency bounds how many repair solves are in flight at once
// manager-wide: enough to keep the engine's pool busy, few enough that a
// large session count cannot flood it and starve interactive solves.
const repairConcurrency = 4

// RepairAll runs one drift-repair cycle over every live session, with solve
// concurrency bounded by the manager-wide semaphore, and returns when the
// whole cycle is done. The background loop triggers it on RepairInterval;
// it is exported for tests and manual cycles. The context bounds the cycle.
func (m *Manager) RepairAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, s := range m.list() {
		if ctx.Err() != nil {
			break
		}
		m.repairSem <- struct{}{}
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			defer func() { <-m.repairSem }()
			m.repairOne(ctx, s)
		}(s)
	}
	wg.Wait()
}

// repairOne runs one drift-repair cycle for one session. A session whose
// version has not moved since its last completed cycle is skipped outright —
// no clone, no solve. Otherwise the cycle routes to the dirty-component
// delta path (uncapped sessions whose solver decomposes safely) or falls
// back to the whole-instance re-solve.
func (m *Manager) repairOne(ctx context.Context, s *Session) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.lastRepair == s.version {
		s.metrics.RepairSkips++
		m.repSkips.Add(1)
		s.mu.Unlock()
		return
	}
	base := s.solver
	if base == nil {
		base = m.eng.DefaultSolver()
	}
	// The delta path re-solves dirty components in isolation and overlays the
	// results, which is only sound when per-component optima compose: never
	// under a size cap (the cap couples components through shared units — the
	// session's contract since capped sessions solve whole) and never for a
	// solver that declares itself component-unsafe.
	deltaOK := s.ds.SizeCap() == 0
	if deltaOK {
		cs, ok := base.(core.ComponentSafe)
		deltaOK = ok && cs.DecomposeSafe()
	}
	s.mu.Unlock()
	start := m.now()
	if deltaOK && m.repairDelta(ctx, s, base) {
		m.observeRepair(start)
		return
	}
	m.repairWhole(ctx, s, base)
	m.observeRepair(start)
}

// observeRepair reports one completed repair cycle's wall time to the
// telemetry hook, when one is installed.
func (m *Manager) observeRepair(start time.Time) {
	if m.repairObserver != nil {
		m.repairObserver(m.now().Sub(start))
	}
}

// repairDelta is the dirty-component repair path: it re-solves only the
// connected components events have touched since the session's last completed
// repair, warm-started from the incumbent rows, and overlays the re-solved
// rows onto the live configuration. Reports true when it completed the cycle
// (including skips and errors); false means the caller should fall back to a
// whole-instance repair.
func (m *Manager) repairDelta(ctx context.Context, s *Session, base core.Solver) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true
	}
	dirty := s.ds.DirtyComponents()
	if len(dirty) == 0 {
		// Events advanced the version without touching any component's
		// utilities (pure rebalance sweeps move the configuration along the
		// same best-response dynamics a repair would): complete the cycle as
		// a skip so the next one is free too.
		s.lastRepair = s.version
		s.metrics.RepairSkips++
		m.repSkips.Add(1)
		s.mu.Unlock()
		return true
	}
	in := s.ds.Instance()
	conf := s.ds.Config()
	version, current := s.version, s.value
	ins := make([]*core.Instance, len(dirty))
	origs := make([][]int, len(dirty))
	incs := make([]float64, len(dirty))
	solvers := make([]core.Solver, len(dirty))
	warmed := 0
	for i, members := range dirty {
		// SubInstance deep-copies preferences, edges and τ, so the sub-solves
		// below run outside the session lock against immutable inputs.
		sub, orig, err := core.SubInstance(in, members)
		if err != nil {
			// Cannot happen for active user ids; fall back to the whole-
			// instance path rather than fail the cycle on one component.
			s.mu.Unlock()
			return false
		}
		subConf := core.NewConfiguration(len(orig), in.K)
		for j, o := range orig {
			copy(subConf.Assign[j], conf.Assign[o])
		}
		ins[i] = sub
		origs[i] = orig
		incs[i] = core.Evaluate(sub, subConf).Weighted()
		sv := base
		if ws, ok := base.(core.WarmStarter); ok {
			if w := ws.WarmStart(subConf); w != nil {
				sv = w
				warmed++
			}
		}
		// Warm solvers depend on this session's incumbent and sub-instances
		// are single components already: run them uncached and undecomposed
		// so they get no cache entry and no flight.
		solvers[i] = engine.Uncached{S: sv}
	}
	s.mu.Unlock()

	m.repRuns.Add(1)
	m.repWarm.Add(uint64(warmed))
	m.repCold.Add(uint64(len(dirty) - warmed))
	sctx, cancel := context.WithTimeout(ctx, repairTimeout)
	sols, err := m.eng.SolveBatchEach(sctx, ins, solvers)
	cancel()
	if err != nil {
		m.repErrors.Add(1)
		return true
	}
	// The merged objective moves by exactly the per-component improvements:
	// components are utility-independent (no edges cross them), so swapping a
	// component's rows changes the global objective by (re-solved − incumbent)
	// on that component alone.
	merged := current
	confs := make([]*core.Configuration, len(sols))
	for i, sol := range sols {
		merged += sol.Report.Weighted() - incs[i]
		confs[i] = sol.Config
	}
	// The overlay is built from the live configuration, after commitRepair's
	// version check has proved it is the one the sub-solves started from.
	m.commitRepair(s, version, current, merged, func() *core.Configuration {
		return core.OverlayConfiguration(s.ds.Config(), confs, origs)
	})
	return true
}

// repairWhole re-solves one session's current instance through the engine and
// swaps the result in when it beats the incremental configuration by the
// margin. The snapshot is taken under the session lock but the solve runs
// outside it, so event application never blocks on a re-solve. When the
// session's solver can warm-start, the re-solve is seeded from the incumbent
// configuration and run uncached (a warm result depends on the incumbent, so
// it must never enter the engine's keyed cache).
func (m *Manager) repairWhole(ctx context.Context, s *Session, base core.Solver) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	snap := s.ds.Instance().Clone()
	version, current := s.version, s.value
	solver := s.solver
	warm := false
	if ws, ok := base.(core.WarmStarter); ok {
		if w := ws.WarmStart(s.ds.Config()); w != nil {
			solver = engine.Uncached{S: w}
			warm = true
		}
	}
	s.mu.Unlock()

	m.repRuns.Add(1)
	if warm {
		m.repWarm.Add(1)
	} else {
		m.repCold.Add(1)
	}
	sctx, cancel := context.WithTimeout(ctx, repairTimeout)
	sol, err := m.eng.SolveWith(sctx, snap, solver)
	cancel()
	if err != nil {
		m.repErrors.Add(1)
		return
	}
	// The engine returns a private Solution (cache hits and fills clone), so
	// its configuration can be adopted and logged as is.
	m.commitRepair(s, version, current, sol.Report.Weighted(), func() *core.Configuration {
		return sol.Config
	})
}

// commitRepair is the last step of every repair cycle, under the session
// lock. A result is discarded as stale if events advanced the session past
// version while it was solved; it is kept out unless resolved beats current
// by the margin; otherwise build's configuration is adopted and logged as a
// state transition like any event batch, so WAL replay lands on the exact
// served configuration, not just the same value. build runs under the
// session lock and must return a configuration nothing else references
// (Adopt deep-clones it; the log keeps it).
func (m *Manager) commitRepair(s *Session, version uint64, current, resolved float64, build func() *core.Configuration) {
	threshold := current * (1 + m.repairMargin)
	if m.repairMargin < 0 {
		threshold = current
	}
	s.mu.Lock()
	swapped := func() bool {
		defer s.mu.Unlock()
		if s.closed {
			return false
		}
		if s.version != version {
			s.metrics.RepairStale++
			m.repStale.Add(1)
			return false
		}
		if resolved > threshold {
			conf := build()
			// A capped session never adopts a configuration that violates
			// its bound, whatever the solver produced — the cap is the
			// session's contract, better objective or not. (The serving
			// layer already rejects cap-incapable solvers at create; this
			// holds the invariant for library-constructed sessions too.)
			if cap := s.ds.SizeCap(); cap == 0 || conf.MaxSubgroupSize() <= cap {
				if err := s.ds.Adopt(conf); err != nil {
					// Cannot happen for rows solved on this very instance;
					// account it rather than crash the loop.
					m.repErrors.Add(1)
					return false
				}
				s.ds.ClearDirty()
				s.value = s.ds.Value()
				s.version++
				s.lastRepair = s.version
				s.metrics.RepairSwaps++
				m.repSwaps.Add(1)
				if s.persist != nil {
					s.outbox = append(s.outbox, persistOp{
						kind:  opAdopt,
						conf:  conf,
						from:  version,
						to:    s.version,
						value: s.value,
					})
					s.sinceSnapshot++
					s.maybeSnapshotLocked()
				}
				return true
			}
		}
		s.ds.ClearDirty()
		s.lastRepair = s.version
		s.metrics.RepairKeeps++
		m.repKeeps.Add(1)
		return false
	}()
	if swapped {
		s.drainOutbox()
	}
}

// Stats returns a point-in-time snapshot of the manager's counters. It
// takes the table lock only to read Live.
func (m *Manager) Stats() Stats {
	st := Stats{
		Live:         m.Len(),
		Created:      m.created.Load(),
		Restored:     m.restored.Load(),
		Rejected:     m.rejected.Load(),
		Evicted:      m.evicted.Load(),
		Deleted:      m.deleted.Load(),
		Joins:        m.joins.Load(),
		Leaves:       m.leaves.Load(),
		Updates:      m.updates.Load(),
		Rebalances:   m.rebals.Load(),
		RepairRuns:   m.repRuns.Load(),
		RepairSwaps:  m.repSwaps.Load(),
		RepairKeeps:  m.repKeeps.Load(),
		RepairStale:  m.repStale.Load(),
		RepairErrors: m.repErrors.Load(),
		RepairSkips:  m.repSkips.Load(),
		RepairWarm:   m.repWarm.Load(),
		RepairCold:   m.repCold.Load(),
	}
	st.EventsApplied = st.Joins + st.Leaves + st.Updates + st.Rebalances
	return st
}
