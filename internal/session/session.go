// Package session is the live-session subsystem: it promotes the dynamic
// scenario of Extension F (shoppers joining and leaving a running VR store,
// the configuration repaired incrementally instead of re-solved) from a
// single-threaded library type into a stateful, concurrency-safe serving
// path.
//
// A Manager holds ID-keyed, versioned Sessions in one table under one lock,
// each session wrapping a core.DynamicSession behind its own serializing
// lock; the table lock guards only the map lookup. Clients mutate a session
// by applying batches of typed, JSON-encodable events (join, leave,
// updatePreference, rebalance); every applied event bumps the session's
// version, so replays and monitoring can assert exactly how far a session
// has advanced. The manager bounds the live-session count (admission
// errors, not queues), evicts idle sessions after a TTL, and runs drift
// repair: its background goroutine periodically re-solves the sessions'
// current instances through the shared engine and atomically swaps in the
// full solution when it beats the incrementally maintained configuration by
// a configurable margin. Repair solves run outside the session lock, so the
// event path never blocks on a re-solve; a version check at swap time
// discards solutions made stale by concurrent events.
//
// A manager built with Options.Persister is durable: every transition —
// creation, applied batches, repair adoptions, periodic snapshot cuts,
// tombstoning ends — is reported to the persister in per-session order (see
// persist.go for the ordering machinery), and Restore installs recovered
// state images back into a fresh manager after a restart. internal/store
// implements the persister over a write-ahead log with snapshots.
package session

import (
	"fmt"
	"sync"
	"time"

	"github.com/svgic/svgic/internal/core"
)

// Session is one live store: a dynamic session plus the serving state around
// it — identity, version, activity timestamps and per-session metrics. All
// methods are safe for concurrent use; event application is serialized.
type Session struct {
	id      string
	algo    string      // display name of the solver backing create + repair
	ref     SolverRef   // registry identity persisted for recovery
	solver  core.Solver // nil = the engine's default solver
	sizeCap int
	ttl     time.Duration // per-session idle TTL override; 0 = manager default

	persist       Persister // nil = in-memory only
	snapshotEvery int

	mu        sync.Mutex
	ds        *core.DynamicSession
	version   uint64
	value     float64
	created   time.Time
	lastTouch time.Time
	closed    bool

	// Durability outbox: transitions queue here under mu and are drained to
	// the persister in order under outMu (see persist.go). sinceSnapshot
	// counts transitions since the last snapshot cut.
	outbox        []persistOp
	sinceSnapshot int
	outMu         sync.Mutex

	// lastRepair is the session version as of the last COMPLETED repair
	// cycle (swap or keep). A repair cycle that finds the version unchanged
	// skips the clone + solve entirely. The sentinel noRepairYet marks a
	// session no repair has examined (version 0 is a real, repairable state).
	lastRepair uint64

	metrics Metrics
}

// noRepairYet is the lastRepair sentinel of a session that has never
// completed a repair cycle.
const noRepairYet = ^uint64(0)

// ApplyResult reports the outcome of one event batch: the session's version
// and objective value after the last applied event, plus one result per
// applied event (positional with the request on success; on error, the
// prefix that applied before the failure).
type ApplyResult struct {
	Version uint64        `json:"version"`
	Value   float64       `json:"value"`
	Results []EventResult `json:"results"`
}

// apply runs one event batch under the session lock. Events apply in order;
// the first failure stops the batch and the error reports its index, with
// every earlier event still applied (the returned result reflects the
// session as it stands). Each applied event bumps the version by one. The
// applied prefix is queued for the persister (exactly the prefix — a replay
// of the log must reproduce what actually happened, not what was asked) and
// drained outside the state lock.
func (s *Session) apply(now time.Time, events []Event) (ApplyResult, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ApplyResult{}, ErrNotFound
	}
	from := s.version
	results := make([]EventResult, 0, len(events))
	var failed error
	for i, ev := range events {
		res, err := Apply(s.ds, ev)
		if err != nil {
			failed = fmt.Errorf("session: event %d: %w", i, err)
			break
		}
		s.version++
		s.metrics.Count(res)
		results = append(results, res)
	}
	s.value = s.ds.Value()
	s.lastTouch = now
	out := ApplyResult{Version: s.version, Value: s.value, Results: results}
	if s.persist != nil && len(results) > 0 {
		s.outbox = append(s.outbox, persistOp{
			kind:   opEvents,
			events: events[:len(results)],
			from:   from,
			to:     s.version,
			value:  s.value,
		})
		s.sinceSnapshot += len(results)
		s.maybeSnapshotLocked()
	}
	s.mu.Unlock()
	s.drainOutbox()
	return out, failed
}

// Metrics is the per-session counter block exposed by snapshots and the
// sessions section of /v1/stats.
type Metrics struct {
	EventsApplied uint64  `json:"eventsApplied"`
	Joins         uint64  `json:"joins"`
	Leaves        uint64  `json:"leaves"`
	Updates       uint64  `json:"updates"`
	Rebalances    uint64  `json:"rebalances"`
	RebalanceGain float64 `json:"rebalanceGain"`
	RepairSwaps   uint64  `json:"repairSwaps"`
	RepairKeeps   uint64  `json:"repairKeeps"`
	RepairStale   uint64  `json:"repairStale"`
	RepairSkips   uint64  `json:"repairSkips"`
}

// Count adds one applied event: EventsApplied, its kind's count and, for a
// rebalance, its gain. Live application and WAL replay both count through
// it, so a recovered session reports the counts it served.
func (m *Metrics) Count(res EventResult) {
	m.EventsApplied++
	switch res.Type {
	case EventJoin:
		m.Joins++
	case EventLeave:
		m.Leaves++
	case EventUpdatePreference:
		m.Updates++
	case EventRebalance:
		m.Rebalances++
		m.RebalanceGain += res.Gain
	}
}

// Snapshot is a point-in-time copy of a session's serving state: the current
// configuration (deep-copied; callers may keep it), the active-user set and
// the metrics.
type Snapshot struct {
	ID         string
	Algorithm  string
	SizeCap    int
	Version    uint64
	Value      float64
	Users      int   // instance rows, including departed shoppers
	Active     []int // ids of shoppers currently in the store
	Slots      int
	Assignment [][]int
	Created    time.Time
	LastTouch  time.Time
	Metrics    Metrics
}

// snapshot assembles a Snapshot under the session lock; touch refreshes the
// idle clock (reads count as activity for TTL eviction).
func (s *Session) snapshot(now time.Time, touch bool) (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Snapshot{}, ErrNotFound
	}
	if touch {
		s.lastTouch = now
	}
	conf := s.ds.Config()
	return Snapshot{
		ID:         s.id,
		Algorithm:  s.algo,
		SizeCap:    s.sizeCap,
		Version:    s.version,
		Value:      s.value,
		Users:      conf.NumUsers(),
		Active:     s.ds.ActiveUsers(),
		Slots:      conf.K,
		Assignment: conf.Clone().Assign,
		Created:    s.created,
		LastTouch:  s.lastTouch,
		Metrics:    s.metrics,
	}, nil
}

// close marks the session dead; later applies and snapshots see ErrNotFound
// and an in-flight drift repair discards its result. A non-empty reason
// queues a durable tombstone (delete / TTL eviction); an empty reason is a
// manager shutdown — the session's durable state must survive the restart,
// so only the pending outbox is flushed. close takes the state lock, so it
// serializes after any in-flight apply: the tombstone always lands after
// that apply's ops in the log.
func (s *Session) close(reason EndReason) {
	s.mu.Lock()
	s.closed = true
	if s.persist != nil && reason != "" {
		s.outbox = append(s.outbox, persistOp{kind: opEnd, reason: reason})
	}
	s.mu.Unlock()
	s.drainOutbox()
}
