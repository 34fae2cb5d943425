package session

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/svgic/svgic/internal/core"
)

// This file is the session side of the durability contract. A Manager built
// with Options.Persister reports every state transition of every session —
// creation, applied event batches, drift-repair adoptions, periodic snapshot
// cuts and tombstoning ends — to the persister, which turns them into a
// write-ahead log and snapshots (see internal/store). Restore is the inverse
// path: after a crash, recovered State images are installed back into a
// fresh manager without re-solving.
//
// Ordering is the whole game for a log: the persister must observe one
// session's transitions in exactly the order they were applied, or replay
// diverges. Hook calls therefore never happen under the session's state lock
// (a slow persister — an fsync — must not serialize with event application),
// but they ARE sequenced by it: each transition appends a persistOp to the
// session's outbox while still holding the state lock, and the outbox is
// drained to the persister under a dedicated drain lock after the state lock
// is released. Event latency is bounded by the persister's enqueue (a
// buffered append), never by its I/O — except that the SnapshotEvery-th
// transition clones the full instance under the state lock to cut its
// image, the same O(instance) cost the drift-repair path pays per cycle.

// EndReason says why a session's durable state is being tombstoned.
type EndReason string

// The tombstoning reasons.
const (
	// EndDeleted: an explicit DELETE ended the session.
	EndDeleted EndReason = "deleted"
	// EndEvicted: the TTL sweep dropped an idle session. Persisted like a
	// delete, so an evicted-then-recycled session id can never resurrect
	// stale WAL state on restart.
	EndEvicted EndReason = "evicted"
)

// SolverRef names the registry solver backing a session — the piece a
// recovery path needs to re-resolve the session's drift-repair solver, since
// a core.Solver value itself cannot be persisted. An empty Name means the
// engine's default solver.
type SolverRef struct {
	Name   string          `json:"name,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
}

// State is the full durable image of one live session: everything Restore
// needs to serve it again bit-for-bit. Instance and Config are deep clones —
// the persister may marshal them long after the live session has moved on.
type State struct {
	ID      string
	Ref     SolverRef
	Algo    string // display name of the backing algorithm
	SizeCap int
	// TTL is the session's idle-eviction override (CreateSpec.TTL); zero
	// means the manager default. It travels in the durable image so a
	// restored session keeps its eviction contract across restarts.
	TTL     time.Duration
	Version uint64
	Value   float64
	Created time.Time

	Instance *core.Instance
	Config   *core.Configuration
	Active   []int

	Metrics Metrics
}

// Persister receives a Manager's durability hooks. Implementations must be
// safe for concurrent use across sessions; calls for ONE session are always
// sequential and in application order. Calls must not re-enter the manager.
//
// internal/store implements it over a write-ahead log with snapshots; a nil
// persister (the default) keeps sessions purely in memory.
type Persister interface {
	// SessionCreated reports a new session, with its full post-solve state.
	// It is invoked before the session becomes reachable, so it
	// happens-before every other hook for that id.
	SessionCreated(st *State)
	// EventsApplied reports one applied event batch (exactly the applied
	// prefix on a partial failure): the session moved from version `from` to
	// version `to` and now evaluates to value.
	EventsApplied(id string, events []Event, from, to uint64, value float64)
	// ConfigAdopted reports a drift-repair swap: the session jumped to conf
	// (deep clone, callee may keep it) at version `to`.
	ConfigAdopted(id string, conf *core.Configuration, from, to uint64, value float64)
	// SnapshotCut reports a periodic full-state image (every
	// Options.SnapshotEvery applied transitions); the persister may compact
	// everything older than it.
	SnapshotCut(st *State)
	// SessionEnded reports a tombstone: the session was deleted or evicted
	// and its durable state must not be recovered.
	SessionEnded(id string, reason EndReason)
}

// DefaultSnapshotEvery is the snapshot cadence (in applied transitions) when
// Options.SnapshotEvery is zero.
const DefaultSnapshotEvery = 256

// persistOp is one queued hook call. Ops are appended to the session outbox
// under the state lock and replayed to the persister in order.
type persistOp struct {
	kind   opKind
	events []Event
	conf   *core.Configuration
	state  *State
	from   uint64
	to     uint64
	value  float64
	reason EndReason
}

type opKind uint8

const (
	opEvents opKind = iota
	opAdopt
	opSnapshot
	opEnd
)

// stateLocked assembles the session's durable image. Caller holds s.mu.
func (s *Session) stateLocked() *State {
	return &State{
		ID:       s.id,
		Ref:      s.ref,
		Algo:     s.algo,
		SizeCap:  s.sizeCap,
		TTL:      s.ttl,
		Version:  s.version,
		Value:    s.value,
		Created:  s.created,
		Instance: s.ds.Instance().Clone(),
		Config:   s.ds.Config().Clone(),
		Active:   s.ds.ActiveUsers(),
		Metrics:  s.metricsLocked(),
	}
}

// maybeSnapshotLocked cuts a snapshot op once enough transitions accumulated
// since the last cut. Caller holds s.mu and has already appended the
// triggering transition's op, so the snapshot lands after it in the log.
func (s *Session) maybeSnapshotLocked() {
	if s.persist == nil || s.snapshotEvery <= 0 {
		return
	}
	if s.sinceSnapshot < s.snapshotEvery {
		return
	}
	s.sinceSnapshot = 0
	s.outbox = append(s.outbox, persistOp{kind: opSnapshot, state: s.stateLocked()})
}

// drainOutbox replays queued persistOps to the persister, in order, outside
// the state lock. The drain lock serializes drainers, so two appliers
// finishing close together cannot interleave their ops at the persister; the
// loop re-checks the outbox because ops may be appended while a drain is
// mid-flight (that appender then blocks here and picks up anything left).
func (s *Session) drainOutbox() {
	if s.persist == nil {
		return
	}
	s.outMu.Lock()
	defer s.outMu.Unlock()
	for {
		s.mu.Lock()
		ops := s.outbox
		s.outbox = nil
		s.mu.Unlock()
		if len(ops) == 0 {
			return
		}
		for _, op := range ops {
			switch op.kind {
			case opEvents:
				s.persist.EventsApplied(s.id, op.events, op.from, op.to, op.value)
			case opAdopt:
				s.persist.ConfigAdopted(s.id, op.conf, op.from, op.to, op.value)
			case opSnapshot:
				s.persist.SnapshotCut(op.state)
			case opEnd:
				s.persist.SessionEnded(s.id, op.reason)
			}
		}
	}
}

// Restore installs a recovered session image into the manager without
// re-solving: the recovery path (internal/store.Recover) rebuilds State from
// the latest snapshot plus the replayed WAL tail, the serving layer
// re-resolves the drift-repair solver from st.Ref, and the session then
// serves exactly the (version, value, configuration) it served before the
// crash. sinceSnapshot seeds the snapshot cadence with the replayed tail
// length, so a session recovered just short of a cut does not wait a full
// interval for its next one. Restored sessions bypass MaxSessions — they
// were admitted before the restart — but collide with nothing: a duplicate
// id is an error.
func (m *Manager) Restore(st *State, solver core.Solver, sinceSnapshot int) (Snapshot, error) {
	if st == nil || st.Instance == nil || st.Config == nil {
		return Snapshot{}, fmt.Errorf("session: restore: incomplete state")
	}
	if st.ID == "" {
		return Snapshot{}, fmt.Errorf("session: restore: empty session id")
	}
	ds, err := core.RestoreDynamicSession(st.Instance, st.Config, st.SizeCap, st.Active)
	if err != nil {
		return Snapshot{}, fmt.Errorf("session: restore %s: %w", st.ID, err)
	}
	// Seed the restored accumulator with the persisted value: the live
	// session's incremental chain and a cold Evaluate can differ in final
	// ulps, and recovery promises the exact (version, value, configuration)
	// served before the crash — including the values later events build on.
	if err := ds.SeedValue(st.Value); err != nil {
		return Snapshot{}, fmt.Errorf("session: restore %s: %w", st.ID, err)
	}
	now := m.now()
	s := &Session{
		id:            st.ID,
		algo:          st.Algo,
		ref:           st.Ref,
		solver:        solver,
		sizeCap:       st.SizeCap,
		ttl:           st.TTL,
		persist:       m.persister,
		snapshotEvery: m.snapshotEvery,
		sinceSnapshot: sinceSnapshot,
		ds:            ds,
		version:       st.Version,
		value:         st.Value,
		created:       st.Created,
		lastTouch:     now,
		lastRepair:    noRepairYet,
		joins:         st.Metrics.Joins,
		leaves:        st.Metrics.Leaves,
		updates:       st.Metrics.Updates,
		rebalances:    st.Metrics.Rebalances,
		rebalanceGain: st.Metrics.RebalanceGain,
		repairSwaps:   st.Metrics.RepairSwaps,
		repairKeeps:   st.Metrics.RepairKeeps,
		repairStale:   st.Metrics.RepairStale,
		repairSkips:   st.Metrics.RepairSkips,
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Snapshot{}, ErrClosed
	}
	if _, dup := m.sessions[st.ID]; dup {
		m.mu.Unlock()
		return Snapshot{}, fmt.Errorf("session: restore %s: id already live", st.ID)
	}
	m.sessions[st.ID] = s
	m.mu.Unlock()
	m.restored.Add(1)
	m.noteTTL(st.TTL)
	return s.snapshot(now, false)
}
