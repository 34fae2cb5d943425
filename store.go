package svgic

import (
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/store"
)

// The durable session store persists live sessions (write-ahead event log +
// periodic snapshots, per session) and recovers them after a crash or
// restart: load the latest snapshot, replay the WAL tail through the same
// Apply semantics the live path uses, and the recovered session serves the
// identical (version, value, configuration) it served before.
//
//	backend, err := svgic.NewFSStoreBackend("/var/lib/svgic")
//	st, err := svgic.OpenSessionStore(svgic.SessionStoreOptions{
//		Backend: backend,
//		Sync:    svgic.SyncAlways,
//	})
//	defer st.Close() // after mgr.Close
//	recovered, err := st.Recover()
//	mgr, err := svgic.NewSessionManager(svgic.SessionManagerOptions{
//		Engine:    eng,
//		Persister: st,
//	})
//	for _, rec := range recovered {
//		mgr.Restore(rec.State, nil)
//	}
//
// svgicd wires the same pieces behind -data-dir / -fsync / -snapshot-every.
type (
	// SessionStore is the durable session store: it implements
	// SessionPersister over a Backend and rebuilds sessions with Recover.
	SessionStore = store.Store
	// SessionStoreOptions configures OpenSessionStore: backend, fsync
	// policy and fsync interval.
	SessionStoreOptions = store.Options
	// SessionStoreStats is the store's counter snapshot (appends, fsyncs,
	// snapshots, compactions, recovery outcomes).
	SessionStoreStats = store.Stats
	// StoreBackend is the byte-moving interface under a SessionStore; the
	// filesystem backend is the built-in implementation.
	StoreBackend = store.Backend
	// StoreSyncPolicy says when WAL appends are fsynced.
	StoreSyncPolicy = store.SyncPolicy
	// RecoveredSession is one session rebuilt by Recover, ready for
	// SessionManager.Restore.
	RecoveredSession = store.Recovered
	// SessionPersister receives a manager's durability hooks; SessionStore
	// implements it.
	SessionPersister = session.Persister
	// SessionState is the full durable image of one live session.
	SessionState = session.State
	// SessionSolverRef names the registry solver backing a session, so
	// recovery can re-resolve it.
	SessionSolverRef = session.SolverRef
	// SessionCreateSpec is SessionManager.CreateWith's full specification —
	// the one session-creation surface: solver, SVGIC-ST cap, the persisted
	// solver reference and the per-session idle-TTL override.
	SessionCreateSpec = session.CreateSpec
)

// The WAL fsync policies.
const (
	// SyncAlways fsyncs after every appended record.
	SyncAlways = store.SyncAlways
	// SyncInterval fsyncs dirty logs on a timer (the default).
	SyncInterval = store.SyncInterval
	// SyncOff never fsyncs.
	SyncOff = store.SyncOff
)

// OpenSessionStore starts a durable session store over a backend. Attach it
// to a manager via SessionManagerOptions.Persister and close it AFTER the
// manager.
func OpenSessionStore(opts SessionStoreOptions) (*SessionStore, error) {
	return store.Open(opts)
}

// NewFSStoreBackend opens (creating if needed) the filesystem store backend
// rooted at dir: one directory per session holding a CRC-framed WAL, an
// atomically replaced snapshot, and a tombstone marker once ended.
func NewFSStoreBackend(dir string) (StoreBackend, error) {
	return store.NewFS(dir)
}
