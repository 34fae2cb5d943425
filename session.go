package svgic

import (
	"github.com/svgic/svgic/internal/session"
)

// Live sessions promote the dynamic scenario (Extension F) to a stateful
// serving path: a SessionManager holds ID-keyed, versioned sessions, each
// wrapping a DynamicSession behind a serializing lock, mutated by typed
// JSON-encodable events, bounded in count, evicted when idle, and kept
// near-optimal by background drift repair — periodic full re-solves through
// the shared Engine that are atomically swapped in when they beat the
// incrementally maintained configuration by a margin. The manager keeps one
// session table under one lock, held only for the map lookup, and one
// background goroutine for eviction and repair.
//
//	eng := svgic.NewEngine(svgic.EngineOptions{})
//	defer eng.Close()
//	mgr, err := svgic.NewSessionManager(svgic.SessionManagerOptions{
//		Engine:         eng,
//		RepairInterval: 30 * time.Second,
//	})
//	defer mgr.Close()
//	snap, _, err := mgr.CreateWith(ctx, in, svgic.SessionCreateSpec{})
//	res, err := mgr.Apply(snap.ID, []svgic.SessionEvent{
//		{Type: svgic.SessionEventJoin, Pref: pref, Friends: ties},
//	})
//
// svgicd serves the same manager over HTTP (POST /v1/sessions, POST
// /v1/sessions/{id}/events, GET/DELETE /v1/sessions/{id}); cmd/datagen
// -events emits replayable SessionTrace documents.
type (
	// SessionManager is the concurrency-safe registry of live sessions.
	SessionManager = session.Manager
	// SessionManagerOptions configures NewSessionManager: engine, session
	// bound, idle TTL, the drift-repair interval/margin and durability.
	SessionManagerOptions = session.Options
	// SessionEvent is one typed live-session event (join, leave,
	// updatePreference, rebalance).
	SessionEvent = session.Event
	// SessionEventType names a SessionEvent kind.
	SessionEventType = session.EventType
	// SessionEventResult reports what applying one event did.
	SessionEventResult = session.EventResult
	// SessionApplyResult reports an event batch's outcome: version, value
	// and per-event results.
	SessionApplyResult = session.ApplyResult
	// SessionSnapshot is a point-in-time copy of one session's state.
	SessionSnapshot = session.Snapshot
	// SessionMetrics is the per-session counter block.
	SessionMetrics = session.Metrics
	// SessionManagerStats aggregates the manager's admission, event and
	// drift-repair counters.
	SessionManagerStats = session.Stats
	// SessionTie is the wire form of one friend tie in a join event.
	SessionTie = session.TieJSON
	// SessionTrace is a replayable live-session workload: an instance plus
	// an event stream valid against it.
	SessionTrace = session.TraceJSON
)

// The live-session event kinds.
const (
	SessionEventJoin             = session.EventJoin
	SessionEventLeave            = session.EventLeave
	SessionEventUpdatePreference = session.EventUpdatePreference
	SessionEventRebalance        = session.EventRebalance
)

// Live-session serving errors.
var (
	// ErrSessionLimit is returned by Create when the manager is at its
	// session bound (HTTP: 429).
	ErrSessionLimit = session.ErrLimit
	// ErrSessionNotFound is returned for unknown, deleted or evicted
	// session ids (HTTP: 404).
	ErrSessionNotFound = session.ErrNotFound
)

// NewSessionManager starts a live-session manager over an engine. Close the
// manager before closing the engine.
func NewSessionManager(opts SessionManagerOptions) (*SessionManager, error) {
	return session.NewManager(opts)
}

// ApplySessionEvent applies one event directly to a DynamicSession — the
// same semantics the manager uses, for offline replay and equivalence
// checks.
func ApplySessionEvent(ds *DynamicSession, ev SessionEvent) (SessionEventResult, error) {
	return session.Apply(ds, ev)
}

// ReplaySessionEvents applies a whole trace to a DynamicSession, stopping at
// the first failing event and returning how many applied.
func ReplaySessionEvents(ds *DynamicSession, events []SessionEvent) (int, error) {
	return session.Replay(ds, events)
}

// GenerateSessionEvents produces a deterministic churn stream (joins with
// friend ties, leaves, preference updates, rebalances) valid against a
// session that starts with initialUsers shoppers over numItems items.
func GenerateSessionEvents(initialUsers, numItems, count int, seed uint64) []SessionEvent {
	return session.GenerateEvents(initialUsers, numItems, count, seed)
}

// NewSessionTrace builds a replayable trace over an instance: its
// interchange form plus count generated churn events.
func NewSessionTrace(in *Instance, sizeCap, count int, seed uint64) *SessionTrace {
	return session.NewTrace(in, sizeCap, count, seed)
}
