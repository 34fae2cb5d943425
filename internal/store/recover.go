package store

import (
	"encoding/json"
	"fmt"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/session"
)

// Recovered is one session rebuilt from the durable store, ready for
// session.Manager.Restore: the full state, including the solver reference
// the serving layer re-resolves.
type Recovered struct {
	State *session.State
}

// Recover rebuilds every persisted, non-tombstoned session. For each: load
// the latest snapshot, restore the dynamic session (core state, active set,
// cap), replay the WAL tail through session.Apply — the SAME
// event-application semantics the live path uses — and assert the replayed
// state lands exactly on the (version, value) the log recorded, so a
// recovered session provably serves what it served before the crash.
//
// Recovery is deliberately forgiving at the edges and strict in the middle:
// a torn tail frame (crash mid-append) is logged in the stats and replay
// stops at the last intact record — that data was never acknowledged as
// durable; but an intact record that fails to apply or lands on the wrong
// value means the log lies, and the session is dropped (counted in
// RecoveryErrors) rather than served wrong.
//
// Call Recover once, before the attached manager starts serving; it reads
// through the backend directly and must not race the writer shards.
func (s *Store) Recover() ([]Recovered, error) {
	ids, err := s.backend.List()
	if err != nil {
		return nil, err
	}
	var out []Recovered
	for _, id := range ids {
		rec, err := s.recoverOne(id)
		if err != nil {
			s.recErrors.Add(1)
			continue
		}
		if rec == nil {
			continue // empty husk (created but nothing durable): swept
		}
		s.recSessions.Add(1)
		out = append(out, *rec)
	}
	return out, nil
}

// recoverOne rebuilds a single session; (nil, nil) means there was nothing
// durable to recover and the husk was cleaned up.
func (s *Store) recoverOne(id string) (*Recovered, error) {
	log, err := s.backend.Open(id)
	if err != nil {
		return nil, err
	}
	defer log.Close()

	snapPayload, err := log.ReadSnapshot()
	if err != nil {
		return nil, err
	}
	records, torn, err := log.ReadWAL()
	if err != nil {
		return nil, err
	}
	if torn != nil {
		s.recTorn.Add(1)
	}
	if snapPayload == nil {
		// A session's first durable write is its creation snapshot; a
		// directory without one is a crash artifact from before that write
		// landed. With no base image the WAL is unreplayable.
		if len(records) == 0 {
			_ = s.backend.Tombstone(id)
			return nil, nil
		}
		return nil, fmt.Errorf("store: session %s has %d WAL records but no snapshot", id, len(records))
	}

	var snap snapshotRecord
	if err := json.Unmarshal(snapPayload, &snap); err != nil {
		return nil, fmt.Errorf("store: session %s: decoding snapshot: %w", id, err)
	}
	if snap.ID != id {
		return nil, fmt.Errorf("store: session %s: snapshot claims id %q", id, snap.ID)
	}
	in, err := core.InstanceFromJSON(&snap.Instance)
	if err != nil {
		return nil, fmt.Errorf("store: session %s: snapshot instance: %w", id, err)
	}
	conf := &core.Configuration{Assign: snap.Config.Assignment, K: snap.Config.Slots}
	ds, err := core.RestoreDynamicSession(in, conf, snap.SizeCap, snap.Active)
	if err != nil {
		return nil, fmt.Errorf("store: session %s: %w", id, err)
	}
	// Seed the value accumulator with the snapshotted value before replaying
	// the tail: the live session maintained its value incrementally, and a
	// cold Evaluate on restore can differ in final ulps. Replay then continues
	// the exact floating-point chain the live path ran, which is what lets the
	// recovery assertion below demand bit equality.
	if err := ds.SeedValue(snap.Value); err != nil {
		return nil, fmt.Errorf("store: session %s: %w", id, err)
	}

	// Metrics continue through the replayed tail, so a recovered session's
	// counters line up with what its clients observed, not with the last
	// snapshot cut.
	metrics := snap.Metrics
	version, value := snap.Version, snap.Value
	for i, payload := range records {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, fmt.Errorf("store: session %s: decoding WAL record %d: %w", id, i, err)
		}
		if rec.To <= version {
			// Behind the snapshot: a crash landed between the snapshot write
			// and the compaction truncate. Covered state, skip.
			s.recSkipped.Add(1)
			continue
		}
		if rec.From != version {
			return nil, fmt.Errorf("store: session %s: WAL record %d continues version %d, session is at %d",
				id, i, rec.From, version)
		}
		switch rec.Kind {
		case walEvents:
			for j, ev := range rec.Events {
				res, err := session.Apply(ds, ev)
				if err != nil {
					return nil, fmt.Errorf("store: session %s: replaying record %d event %d: %w", id, i, j, err)
				}
				metrics.Count(res)
			}
			version += uint64(len(rec.Events))
			s.recEvents.Add(uint64(len(rec.Events)))
		case walAdopt:
			if rec.Config == nil {
				return nil, fmt.Errorf("store: session %s: adopt record %d has no configuration", id, i)
			}
			ac := &core.Configuration{Assign: rec.Config.Assignment, K: rec.Config.Slots}
			if err := ds.Adopt(ac); err != nil {
				return nil, fmt.Errorf("store: session %s: adopting record %d: %w", id, i, err)
			}
			version++
			metrics.RepairSwaps++
		default:
			return nil, fmt.Errorf("store: session %s: unknown WAL record kind %q", id, rec.Kind)
		}
		if version != rec.To {
			return nil, fmt.Errorf("store: session %s: record %d replayed to version %d, log says %d",
				id, i, version, rec.To)
		}
		value = rec.Value
		s.recRecords.Add(1)
	}

	// The recovery assertion: the deterministic replay must land on the
	// exact objective value the live path served at this version. A
	// mismatch means instance round-tripping or event application diverged
	// — serving that state would silently violate the durability contract.
	if got := ds.Value(); got != value {
		return nil, fmt.Errorf("store: session %s: replayed value %v != logged value %v at version %d",
			id, got, value, version)
	}

	state := &session.State{
		ID:       snap.ID,
		Ref:      snap.Solver,
		Algo:     snap.Algo,
		SizeCap:  snap.SizeCap,
		TTL:      snap.TTL,
		Version:  version,
		Value:    value,
		Created:  snap.Created,
		Instance: ds.Instance(),
		Config:   ds.Config(),
		Active:   ds.ActiveUsers(),
		Metrics:  metrics,
	}

	// Re-baseline the durable state on what was just recovered — write the
	// recovered image as the snapshot and truncate the WAL — whenever the
	// log held ANYTHING beyond the snapshot: a replayed tail (bounds the
	// next startup to zero replay), skipped stale records (reclaims them),
	// or a torn tail. The tear is the load-bearing case: without the
	// rewrite it would stay in the file, and because appends are O_APPEND,
	// every post-restart record would land AFTER it — durably fsynced yet
	// invisible to the next recovery, silently losing acknowledged events.
	// A session whose re-baseline fails is not served: its next crash would
	// hit exactly that loss. A clean log (no records, no tear — the normal
	// restart after a graceful shutdown) skips the rewrite: re-snapshotting
	// thousands of idle sessions would turn startup into thousands of
	// needless synchronous writes.
	if len(records) > 0 || torn != nil {
		payload, err := json.Marshal(snapshotFromState(state))
		if err != nil {
			return nil, fmt.Errorf("store: session %s: re-baselining: %w", id, err)
		}
		if err := log.WriteSnapshot(payload); err != nil {
			return nil, fmt.Errorf("store: session %s: re-baselining snapshot: %w", id, err)
		}
		if err := log.Truncate(); err != nil {
			return nil, fmt.Errorf("store: session %s: re-baselining truncate: %w", id, err)
		}
		s.snapshots.Add(1)
		s.snapBytes.Add(uint64(len(payload)))
		s.compacts.Add(1)
	}

	return &Recovered{State: state}, nil
}
