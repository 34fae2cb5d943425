package session

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
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
	DefaultMaxSessions   = 1024
	DefaultRepairMargin  = 0.01
	DefaultRepairTimeout = 30 * time.Second
)

// Options configures a Manager.
type Options struct {
	// Engine runs the initial solve of every session and the drift-repair
	// re-solves. Required; the manager does not own it — close the manager
	// first, then the engine.
	Engine *engine.Engine
	// Shards is the number of hash-partitioned lock domains the session map
	// is split over (see shard.go): session id → FNV-1a → shard, each shard
	// an independent mutex plus a pinned owner goroutine for its eviction and
	// repair. Zero means GOMAXPROCS — one shard per schedulable core; one
	// reproduces the old single-lock manager exactly.
	Shards int
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
	// RepairTimeout bounds each drift-repair solve. Zero means
	// DefaultRepairTimeout.
	RepairTimeout time.Duration
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
// counts). Reading it is lock-free: Live is a single atomic and the rest
// merge per-shard atomic counters, so stats scrapes never contend with the
// serving path. The metric tags name svgicd's /metrics families.
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

// Manager is the concurrency-safe registry of live sessions: a thin router
// over hash-partitioned shards (see shard.go). Create with NewManager,
// release with Close. All methods are safe for concurrent use.
type Manager struct {
	eng            *engine.Engine
	maxSessions    int
	ttl            time.Duration
	repairMargin   float64
	repairTimeout  time.Duration
	persister      Persister
	snapshotEvery  int
	repairObserver func(d time.Duration)

	now func() time.Time // test seam; time.Now in production

	shards []*shard

	// live is the global admission counter: a single atomic, because the
	// MaxSessions bound must be reserved atomically across shards (summing
	// per-shard counters cannot reserve). It also backs the lock-free Len.
	live atomic.Int64

	idc      atomic.Uint64
	rejected atomic.Uint64 // rejections have no session id, hence no shard

	// idRand supplies the random tail of session ids from an explicit seed
	// (Options.Seed, or one drawn once from crypto/rand). idMu guards it:
	// *rand.Rand is not concurrency-safe and id minting is cross-shard.
	idMu   sync.Mutex
	idRand *rand.Rand

	// repairSem bounds in-flight repair solves manager-wide; per-shard
	// cycles share it (see repairShard).
	repairSem chan struct{}

	// closeMu guards the manager-level closed flag: the Create pre-gate joins
	// the creating group under it, so Close (which sets closed under the same
	// lock, then waits on the group) always waits out in-flight creates. The
	// per-shard closed flags, set during Close's sweep, are the authoritative
	// gate on every id-routed path.
	closeMu   sync.Mutex
	closed    bool
	ctx       context.Context // canceled by Close; bounds repair solves
	cancel    context.CancelFunc
	done      chan struct{}
	wg        sync.WaitGroup
	creating  sync.WaitGroup // in-flight CreateWith calls; Close waits them out
	closeOnce sync.Once
}

// NewManager starts a session manager over an engine. Every shard gets a
// pinned owner goroutine driving its eviction sweep and drift-repair cycle
// until Close.
func NewManager(opts Options) (*Manager, error) {
	if opts.Engine == nil {
		return nil, errors.New("session: Options.Engine is required")
	}
	m := &Manager{
		eng:            opts.Engine,
		maxSessions:    opts.MaxSessions,
		ttl:            opts.TTL,
		repairMargin:   opts.RepairMargin,
		repairTimeout:  opts.RepairTimeout,
		persister:      opts.Persister,
		snapshotEvery:  opts.SnapshotEvery,
		repairObserver: opts.RepairObserver,
		now:            time.Now,
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
	if m.repairTimeout <= 0 {
		m.repairTimeout = DefaultRepairTimeout
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
	nshards := opts.Shards
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	m.shards = make([]*shard, nshards)
	for i := range m.shards {
		sh := &shard{
			idx:      i,
			sessions: make(map[string]*Session),
			wake:     make(chan struct{}, 1),
		}
		if m.ttl > 0 {
			sh.minTTL.Store(int64(m.ttl))
		}
		m.shards[i] = sh
	}
	m.repairSem = make(chan struct{}, repairConcurrency)
	//lint:ignore ctxthread manager-lifecycle root context, canceled by Close; serving calls thread their own ctx and repair solves derive from this one so Close cancels them
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.wg.Add(nshards)
	for _, sh := range m.shards {
		go m.shardLoop(sh, opts.RepairInterval)
	}
	return m, nil
}

// shardOf routes an id to its owning shard.
func (m *Manager) shardOf(id string) *shard {
	return m.shards[ShardForID(id, len(m.shards))]
}

// Shards returns the number of hash-partitioned lock domains.
func (m *Manager) Shards() int { return len(m.shards) }

// Close stops the shard owner goroutines, cancels any in-flight repair solve
// and closes every session. Idempotent. The engine stays open — it belongs
// to the caller.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		m.closeMu.Lock()
		m.closed = true
		m.closeMu.Unlock()
		var victims []*Session
		for _, sh := range m.shards {
			sh.mu.Lock()
			sh.closed = true
			for _, s := range sh.sessions {
				victims = append(victims, s)
			}
			sh.sessions = make(map[string]*Session)
			sh.live.Store(0)
			sh.mu.Unlock()
		}
		m.cancel()
		// Wait out in-flight creates: each either inserted before its shard
		// was swept (its session is among the victims) or will fail the
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
		m.live.Store(0)
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

// solveWith routes a full solve through the engine: the session's own solver
// when it has one, the engine default otherwise.
func (m *Manager) solveWith(ctx context.Context, in *core.Instance, solver core.Solver) (*core.Solution, error) {
	if solver != nil {
		return m.eng.SolveWith(ctx, in, solver)
	}
	return m.eng.Solve(ctx, in)
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
	// about.
	m.closeMu.Lock()
	if m.closed {
		m.closeMu.Unlock()
		return Snapshot{}, nil, ErrClosed
	}
	m.creating.Add(1)
	m.closeMu.Unlock()
	defer m.creating.Done()

	// Cheap pre-admission: don't burn a solve for a session that cannot be
	// registered. Advisory only — the binding reservation happens at insert.
	if m.live.Load() >= int64(m.maxSessions) {
		m.rejected.Add(1)
		return Snapshot{}, nil, ErrLimit
	}

	sol, err := m.solveWith(ctx, in, spec.Solver)
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
	// the map check guards against colliding with a session RESTORED from a
	// previous process epoch, whose log a reused id would silently fuse with.
	// Restores all happen before serving starts, so an id checked free here
	// is still free at insert below. Each candidate id is checked only on
	// the shard it routes to — where it would live.
	var sh *shard
	for {
		s.id = m.newID()
		sh = m.shardOf(s.id)
		sh.mu.Lock()
		_, taken := sh.sessions[s.id]
		sh.mu.Unlock()
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
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		abort()
		return Snapshot{}, nil, ErrClosed
	}
	// The binding admission check: reserve a slot in the global live count,
	// give it back if that overshot the bound. A single atomic reserves
	// across all shards without any cross-shard lock.
	if m.live.Add(1) > int64(m.maxSessions) {
		m.live.Add(-1)
		sh.mu.Unlock()
		m.rejected.Add(1)
		abort()
		return Snapshot{}, nil, ErrLimit
	}
	sh.sessions[s.id] = s
	sh.live.Add(1)
	sh.mu.Unlock()
	sh.created.Add(1)
	sh.noteTTL(spec.TTL)
	snap, err := s.snapshot(now, false)
	return snap, sol, err
}

func (m *Manager) get(id string) (*Session, error) {
	return m.shardOf(id).get(id)
}

// Apply runs an event batch against a session, serialized with every other
// batch and drift-repair swap on that session. See Session.apply for batch
// semantics.
func (m *Manager) Apply(id string, events []Event) (ApplyResult, error) {
	sh := m.shardOf(id)
	s, err := sh.get(id)
	if err != nil {
		return ApplyResult{}, err
	}
	res, err := s.apply(m.now(), events)
	sh.countEvents(res.Results)
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
	sh := m.shardOf(id)
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return ErrClosed
	}
	s, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
		sh.live.Add(-1)
		m.live.Add(-1)
	}
	sh.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	sh.deleted.Add(1)
	s.close(EndDeleted)
	return nil
}

// MaxSessions returns the admission bound on live sessions.
func (m *Manager) MaxSessions() int { return m.maxSessions }

// Len returns the number of live sessions. Lock-free: it reads the global
// admission counter, never a shard lock.
func (m *Manager) Len() int {
	return int(m.live.Load())
}

// EvictIdle sweeps every shard for sessions idle longer than their effective
// TTL, returning how many were evicted. The shard owner goroutines call the
// per-shard sweep periodically; this whole-manager form is exported for
// tests and manual sweeps.
func (m *Manager) EvictIdle() int {
	n := 0
	for _, sh := range m.shards {
		n += m.evictShard(sh)
	}
	return n
}

// repairConcurrency bounds how many repair solves are in flight at once
// manager-wide: enough to keep the engine's pool busy, few enough that a
// large session count cannot flood it and starve interactive solves.
const repairConcurrency = 4

// RepairAll runs one drift-repair cycle over every live session — all shards
// in parallel, solve concurrency bounded by the manager-wide semaphore — and
// returns when the whole cycle is done. The shard owner goroutines trigger
// per-shard cycles on RepairInterval; this whole-manager form is exported
// for tests and manual cycles. The context bounds the cycle.
func (m *Manager) RepairAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, sh := range m.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			m.repairShard(ctx, sh)
		}(sh)
	}
	wg.Wait()
}

// repairOne runs one drift-repair cycle for one session, attributing the
// outcome to the session's owning shard. A session whose version has not
// moved since its last completed cycle is skipped outright — no clone, no
// solve. Otherwise the cycle routes to the dirty-component delta path
// (uncapped sessions whose solver decomposes safely) or falls back to the
// whole-instance re-solve.
func (m *Manager) repairOne(ctx context.Context, sh *shard, s *Session) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.lastRepair == s.version {
		s.repairSkips++
		sh.repSkips.Add(1)
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
	if deltaOK && m.repairDelta(ctx, sh, s, base) {
		m.observeRepair(start)
		return
	}
	m.repairWhole(ctx, sh, s, base)
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
func (m *Manager) repairDelta(ctx context.Context, sh *shard, s *Session, base core.Solver) bool {
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
		s.repairSkips++
		sh.repSkips.Add(1)
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
		// so the engine's cache and coalescer never see them.
		solvers[i] = engine.Uncached{S: sv}
	}
	s.mu.Unlock()

	sh.repRuns.Add(1)
	sh.repWarm.Add(uint64(warmed))
	sh.repCold.Add(uint64(len(dirty) - warmed))
	sctx, cancel := context.WithTimeout(ctx, m.repairTimeout)
	sols, err := m.eng.SolveBatchEach(sctx, ins, solvers)
	cancel()
	if err != nil {
		sh.repErrors.Add(1)
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
	threshold := current * (1 + m.repairMargin)
	if m.repairMargin < 0 {
		threshold = current
	}

	s.mu.Lock()
	swapped := false
	func() {
		defer s.mu.Unlock()
		if s.closed {
			return
		}
		if s.version != version {
			s.repairStale++
			sh.repStale.Add(1)
			return
		}
		if merged > threshold {
			overlay := core.OverlayConfiguration(s.ds.Config(), confs, origs)
			if err := s.ds.Adopt(overlay); err != nil {
				// Cannot happen for rows solved on sub-instances of this very
				// instance; account it rather than crash the loop.
				sh.repErrors.Add(1)
				return
			}
			s.ds.ClearDirty()
			s.value = s.ds.Value()
			s.version++
			s.lastRepair = s.version
			s.repairSwaps++
			sh.repSwaps.Add(1)
			swapped = true
			if s.persist != nil {
				// The swap is a state transition like any event batch: log the
				// overlaid configuration (Adopt deep-cloned it, so this is the
				// only live reference) so WAL replay lands on the exact served
				// configuration, not just the same value.
				s.outbox = append(s.outbox, persistOp{
					kind:  opAdopt,
					conf:  overlay,
					from:  version,
					to:    s.version,
					value: s.value,
				})
				s.sinceSnapshot++
				s.maybeSnapshotLocked()
			}
			return
		}
		s.ds.ClearDirty()
		s.lastRepair = s.version
		s.repairKeeps++
		sh.repKeeps.Add(1)
	}()
	if swapped {
		s.drainOutbox()
	}
	return true
}

// repairWhole re-solves one session's current instance through the engine and
// swaps the result in when it beats the incremental configuration by the
// margin. The snapshot is taken under the session lock but the solve runs
// outside it, so event application never blocks on a re-solve; if events
// advanced the session meanwhile, the (now stale) solution is discarded
// rather than clobbering state it never saw. When the session's solver can
// warm-start, the re-solve is seeded from the incumbent configuration and run
// uncached (a warm result depends on the incumbent, so it must never enter
// the engine's keyed cache).
func (m *Manager) repairWhole(ctx context.Context, sh *shard, s *Session, base core.Solver) {
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

	sh.repRuns.Add(1)
	if warm {
		sh.repWarm.Add(1)
	} else {
		sh.repCold.Add(1)
	}
	sctx, cancel := context.WithTimeout(ctx, m.repairTimeout)
	sol, err := m.solveWith(sctx, snap, solver)
	cancel()
	if err != nil {
		sh.repErrors.Add(1)
		return
	}
	resolved := sol.Report.Weighted()
	threshold := current * (1 + m.repairMargin)
	if m.repairMargin < 0 {
		threshold = current
	}

	s.mu.Lock()
	swapped := false
	func() {
		defer s.mu.Unlock()
		if s.closed {
			return
		}
		if s.version != version {
			s.repairStale++
			sh.repStale.Add(1)
			return
		}
		// A capped session never adopts a configuration that violates its
		// bound, whatever the solver produced — the cap is the session's
		// contract, better objective or not. (The serving layer already rejects
		// cap-incapable solvers at create; this holds the invariant for
		// library-constructed sessions too.)
		if cap := s.ds.SizeCap(); cap > 0 && sol.Config.MaxSubgroupSize() > cap {
			s.ds.ClearDirty()
			s.lastRepair = s.version
			s.repairKeeps++
			sh.repKeeps.Add(1)
			return
		}
		if resolved > threshold {
			if err := s.ds.Adopt(sol.Config); err != nil {
				// Cannot happen for a solution solved on a clone of this very
				// instance; account it rather than crash the loop.
				sh.repErrors.Add(1)
				return
			}
			s.ds.ClearDirty()
			s.value = s.ds.Value()
			s.version++
			s.lastRepair = s.version
			s.repairSwaps++
			sh.repSwaps.Add(1)
			swapped = true
			if s.persist != nil {
				// The swap is a state transition like any event batch: log it
				// (the adopted configuration travels as a deep clone — the
				// Solution may live in the engine cache) so WAL replay lands
				// on the exact served configuration, not just the same value.
				s.outbox = append(s.outbox, persistOp{
					kind:  opAdopt,
					conf:  sol.Config.Clone(),
					from:  version,
					to:    s.version,
					value: s.value,
				})
				s.sinceSnapshot++
				s.maybeSnapshotLocked()
			}
			return
		}
		s.ds.ClearDirty()
		s.lastRepair = s.version
		s.repairKeeps++
		sh.repKeeps.Add(1)
	}()
	if swapped {
		s.drainOutbox()
	}
}

// Stats returns a point-in-time snapshot of the manager's counters, merged
// over the shards. Lock-free: every field is an atomic read.
func (m *Manager) Stats() Stats {
	st := Stats{
		Live:     int(m.live.Load()),
		Rejected: m.rejected.Load(),
	}
	for _, sh := range m.shards {
		st.Created += sh.created.Load()
		st.Restored += sh.restored.Load()
		st.Evicted += sh.evicted.Load()
		st.Deleted += sh.deleted.Load()
		st.EventsApplied += sh.events.Load()
		st.Joins += sh.joins.Load()
		st.Leaves += sh.leaves.Load()
		st.Updates += sh.updates.Load()
		st.Rebalances += sh.rebals.Load()
		st.RepairRuns += sh.repRuns.Load()
		st.RepairSwaps += sh.repSwaps.Load()
		st.RepairKeeps += sh.repKeeps.Load()
		st.RepairStale += sh.repStale.Load()
		st.RepairErrors += sh.repErrors.Load()
		st.RepairSkips += sh.repSkips.Load()
		st.RepairWarm += sh.repWarm.Load()
		st.RepairCold += sh.repCold.Load()
	}
	return st
}

// ShardStats returns every shard's counter slice, in shard order — the raw
// material for imbalance and hot-shard monitoring. Lock-free.
func (m *Manager) ShardStats() []ShardStats {
	out := make([]ShardStats, len(m.shards))
	for i, sh := range m.shards {
		out[i] = sh.stats()
	}
	return out
}
