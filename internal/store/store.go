// Package store is the durable session store: a crash-safe persistence
// subsystem for the live-serving path (internal/session). Every live
// session gets a per-session write-ahead log of its typed JSON events plus
// periodic full-state snapshots; recovery rebuilds every session on startup
// by loading its latest snapshot and replaying the WAL tail through the
// exact event-application semantics the live path uses (session.Apply), so
// a restarted svgicd serves the identical (version, value, configuration)
// it served before the crash.
//
// Architecture:
//
//   - The Store implements session.Persister. The session manager reports
//     every transition — creation, applied event batches, drift-repair
//     adoptions, snapshot cuts, tombstoning ends — in per-session order;
//     the Store enqueues each onto one of a small number of writer shards
//     (sessions hash to shards, so one session's ops stay ordered) and the
//     shard goroutines do all marshalling, framing, appending and fsyncing
//     off the serving path. Event latency sees a buffered channel send —
//     never an fsync — plus, on the SnapshotEvery-th transition only, the
//     O(instance) state clone a snapshot cut takes under the session lock
//     (the same cost the drift-repair path already pays every cycle).
//
//   - Durability is governed by the fsync policy: SyncAlways fsyncs after
//     every record (every acknowledged-and-drained event survives a machine
//     crash), SyncInterval fsyncs dirty logs on a timer (bounded loss
//     window), SyncOff leaves it to the OS (a process kill loses nothing —
//     the page cache survives — but a machine crash may lose the tail).
//     Recovery tolerates all three: a torn or missing tail parses as a
//     shorter, still-consistent log.
//
//   - Snapshots bound recovery time: every SnapshotEvery transitions the
//     manager cuts a full-state image, which the Store writes atomically
//     and then truncates the WAL (log compaction) — replay at recovery is
//     bounded by the post-snapshot tail, not session lifetime.
//
//   - The Backend interface (filesystem today) isolates the byte-moving so
//     an embedded-KV or replicated backend can be swapped in.
//
// Record framing (filesystem backend): every payload is CRC-32C framed
// (wal.go); recovery stops at the last intact frame and reports — never
// fails on — a torn tail.
package store

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/session"
)

// SyncPolicy says when appended WAL records are fsynced.
type SyncPolicy int

// The fsync policies.
const (
	// SyncInterval fsyncs dirty logs every Options.SyncInterval — the
	// throughput default with a bounded loss window.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every appended record.
	SyncAlways
	// SyncOff never fsyncs; durability is the OS's promise, not ours.
	SyncOff
)

// ParseSyncPolicy maps the CLI spelling (always | interval | off) to a
// policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always|interval|off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "interval"
	}
}

// DefaultSyncInterval is the fsync cadence when Options.SyncInterval is zero.
const DefaultSyncInterval = 100 * time.Millisecond

const (
	// writerShards is the writer-goroutine count; sessions hash onto
	// shards, so per-session op order is preserved. Under SyncAlways each
	// append is followed by an fsync on its shard's goroutine, so four
	// shards keep up to four fsyncs in flight where one writer would queue
	// every session behind one. A one-writer store measured worse on
	// durable-session (median p50 1.331 → 1.452 ms, worse in 5 of 6 pairs;
	// EXPERIMENTS.md, "Durability").
	writerShards = 4
	// queueDepth is each shard's buffered op queue. A full queue
	// backpressures the serving path (the durability contract beats
	// unbounded memory).
	queueDepth = 256
)

// Options configures a Store.
type Options struct {
	// Backend holds the bytes. Required; the Store owns it and closes it.
	Backend Backend
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncInterval is the dirty-log fsync cadence under SyncInterval
	// (default DefaultSyncInterval).
	SyncInterval time.Duration
}

// Store is the durable session store. Open with Open, attach to a
// session.Manager via Options.Persister, recover with Recover, release with
// Close (after the manager). All methods are safe for concurrent use.
type Store struct {
	backend Backend
	policy  SyncPolicy
	every   time.Duration

	shards []*shard

	// encMu lets Close wait out in-flight enqueues (writers hold R, Close
	// holds W) so channel sends never race channel close.
	encMu  sync.RWMutex
	closed bool
	once   sync.Once

	appends    atomic.Uint64
	appendedEv atomic.Uint64
	bytes      atomic.Uint64
	syncs      atomic.Uint64
	snapshots  atomic.Uint64
	snapBytes  atomic.Uint64
	compacts   atomic.Uint64
	tombstones atomic.Uint64
	ioErrors   atomic.Uint64
	dropped    atomic.Uint64
	openLogs   atomic.Int64

	recSessions atomic.Uint64
	recRecords  atomic.Uint64
	recEvents   atomic.Uint64
	recSkipped  atomic.Uint64
	recTorn     atomic.Uint64
	recErrors   atomic.Uint64
}

// Stats is a point-in-time snapshot of the store's counters. The metric
// tags name svgicd's /metrics families.
type Stats struct {
	Policy string `json:"fsync"`

	Appends        uint64 `json:"appends" metric:"svgicd_store_appends_total" help:"WAL records appended."`
	AppendedEvents uint64 `json:"appendedEvents" metric:"svgicd_store_appended_events_total" help:"Events inside appended WAL records."`
	AppendedBytes  uint64 `json:"appendedBytes" metric:"svgicd_store_appended_bytes_total" help:"Bytes appended to WALs (frames included)."`
	Syncs          uint64 `json:"syncs" metric:"svgicd_store_syncs_total" help:"fsync calls issued by the store."`
	Snapshots      uint64 `json:"snapshots" metric:"svgicd_store_snapshots_total" help:"Session snapshots written."`
	SnapshotBytes  uint64 `json:"snapshotBytes"`
	Compactions    uint64 `json:"compactions" metric:"svgicd_store_compactions_total" help:"WAL truncations behind a snapshot."`
	Tombstones     uint64 `json:"tombstones" metric:"svgicd_store_tombstones_total" help:"Session tombstones written."`
	IOErrors       uint64 `json:"ioErrors" metric:"svgicd_store_io_errors_total" help:"Persistence operations abandoned on I/O failure."`
	Dropped        uint64 `json:"dropped"` // ops discarded after Close (caller bug)

	QueueDepth int `json:"queueDepth" metric:"svgicd_store_queue_depth" help:"Persist ops waiting across writer shards."`
	OpenLogs   int `json:"openLogs" metric:"svgicd_store_open_logs" help:"Session logs currently open."`

	// Recovery counters (populated by Recover).
	RecoveredSessions uint64 `json:"recoveredSessions" metric:"svgicd_store_recovered_sessions_total" help:"Sessions recovered at the last startup."`
	ReplayedRecords   uint64 `json:"replayedRecords" metric:"svgicd_store_replayed_records_total" help:"WAL tail records replayed during recovery."`
	ReplayedEvents    uint64 `json:"replayedEvents" metric:"svgicd_store_replayed_events_total" help:"Events replayed during recovery."`
	SkippedRecords    uint64 `json:"skippedRecords"` // already covered by the snapshot
	TornTails         uint64 `json:"tornTails" metric:"svgicd_store_torn_tails_total" help:"WALs that ended in a torn frame at recovery."`
	RecoveryErrors    uint64 `json:"recoveryErrors" metric:"svgicd_store_recovery_errors_total" help:"Sessions that failed to recover."`
}

// shard owns a subset of sessions: their open logs and the ordered op queue.
type shard struct {
	ch   chan op
	done chan struct{}
	logs map[string]*openLog
}

type openLog struct {
	log    Log
	dirty  bool // appended since last fsync
	broken bool // a partial append may have left a mid-log tear; no more
	// appends until a snapshot+truncate rebuilds the log clean (appending
	// past a tear writes records recovery can never read)
}

type op struct {
	kind   opKind
	id     string
	events []session.Event
	conf   *core.Configuration
	state  *session.State
	from   uint64
	to     uint64
	value  float64
	ack    chan<- struct{} // barrier: closed once every earlier op is durable
}

type opKind uint8

const (
	opSnapshot opKind = iota // create + periodic cuts: full image, then compact
	opAppend                 // events batch or adopted configuration
	opEnd                    // tombstone
	opBarrier                // flush + fsync, then ack (tests, shutdown)
)

// walRecord is the JSON payload of one WAL frame: either an applied event
// batch or a drift-repair adoption. From/To are the session versions
// before/after; Value is the objective after, the recovery cross-check.
type walRecord struct {
	Kind   string                  `json:"kind"` // "events" | "adopt"
	From   uint64                  `json:"from"`
	To     uint64                  `json:"to"`
	Value  float64                 `json:"value"`
	Events []session.Event         `json:"events,omitempty"`
	Config *core.ConfigurationJSON `json:"config,omitempty"`
}

// snapshotRecord is the JSON payload of a snapshot frame: the full durable
// image of one session.
type snapshotRecord struct {
	ID       string                 `json:"id"`
	Solver   session.SolverRef      `json:"solver,omitempty"`
	Algo     string                 `json:"algo,omitempty"`
	SizeCap  int                    `json:"sizeCap,omitempty"`
	TTL      time.Duration          `json:"ttl,omitempty"`
	Version  uint64                 `json:"version"`
	Value    float64                `json:"value"`
	Created  time.Time              `json:"created"`
	Instance core.InstanceJSON      `json:"instance"`
	Config   core.ConfigurationJSON `json:"config"`
	Active   []int                  `json:"active"`
	Metrics  session.Metrics        `json:"metrics"`
}

// Open starts a store over a backend: one writer goroutine per shard, plus
// the interval-fsync timer when the policy asks for one.
func Open(opts Options) (*Store, error) {
	if opts.Backend == nil {
		return nil, fmt.Errorf("store: Options.Backend is required")
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	s := &Store{
		backend: opts.Backend,
		policy:  opts.Sync,
		every:   opts.SyncInterval,
		shards:  make([]*shard, writerShards),
	}
	for i := range s.shards {
		sh := &shard{
			ch:   make(chan op, queueDepth),
			done: make(chan struct{}),
			logs: make(map[string]*openLog),
		}
		s.shards[i] = sh
		go s.shardLoop(sh)
	}
	return s, nil
}

// shardFor hashes a session id onto its owning shard.
func (s *Store) shardFor(id string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// enqueue hands an op to its session's shard, preserving per-session order.
// After Close the op is counted and dropped (the manager is contractually
// closed first, so this is a caller bug, not data loss to hide).
func (s *Store) enqueue(o op) {
	s.encMu.RLock()
	defer s.encMu.RUnlock()
	if s.closed {
		s.dropped.Add(1)
		if o.ack != nil {
			close(o.ack)
		}
		return
	}
	s.shardFor(o.id).ch <- o
}

// SessionCreated implements session.Persister: the creation image is the
// session's first snapshot.
func (s *Store) SessionCreated(st *session.State) {
	s.enqueue(op{kind: opSnapshot, id: st.ID, state: st})
}

// EventsApplied implements session.Persister.
func (s *Store) EventsApplied(id string, events []session.Event, from, to uint64, value float64) {
	s.enqueue(op{kind: opAppend, id: id, events: events, from: from, to: to, value: value})
}

// ConfigAdopted implements session.Persister. Ownership transfer by
// contract: the session layer clones the adopted configuration into its
// outbox before handing it to the persister, so the pointer received here is
// already private to the durability path.
func (s *Store) ConfigAdopted(id string, conf *core.Configuration, from, to uint64, value float64) {
	//lint:ignore cloneescape Persister contract passes ownership of an already-cloned configuration; cloning again would double every adopt's allocations
	s.enqueue(op{kind: opAppend, id: id, conf: conf, from: from, to: to, value: value})
}

// SnapshotCut implements session.Persister.
func (s *Store) SnapshotCut(st *session.State) {
	s.enqueue(op{kind: opSnapshot, id: st.ID, state: st})
}

// SessionEnded implements session.Persister. The reason (delete vs. evict)
// does not change what the store writes — both end in the same tombstone.
func (s *Store) SessionEnded(id string, _ session.EndReason) {
	s.enqueue(op{kind: opEnd, id: id})
}

// Barrier blocks until every op enqueued before the call has been written
// and fsynced (whatever the policy). Tests use it to make "everything acked
// so far is durable" a checkable statement; Close implies it.
func (s *Store) Barrier() {
	acks := make([]chan struct{}, 0, len(s.shards))
	s.encMu.RLock()
	if s.closed {
		s.encMu.RUnlock()
		return
	}
	for _, sh := range s.shards {
		ack := make(chan struct{})
		acks = append(acks, ack)
		sh.ch <- op{kind: opBarrier, ack: ack}
	}
	s.encMu.RUnlock()
	for _, ack := range acks {
		<-ack
	}
}

// Close drains every shard queue, fsyncs and closes all logs, and releases
// the backend. Close the session manager FIRST — a manager still serving
// would have its persist ops dropped. Idempotent.
func (s *Store) Close() error {
	s.once.Do(func() {
		s.encMu.Lock()
		s.closed = true
		for _, sh := range s.shards {
			close(sh.ch)
		}
		s.encMu.Unlock()
		for _, sh := range s.shards {
			<-sh.done
		}
		_ = s.backend.Close()
	})
	return nil
}

// shardLoop is one writer goroutine: it drains the shard's op queue in
// order and, under SyncInterval, fsyncs dirty logs on the timer. On channel
// close it flushes (fsync + close) every open log and exits.
func (s *Store) shardLoop(sh *shard) {
	defer close(sh.done)
	var tick <-chan time.Time
	if s.policy == SyncInterval {
		t := time.NewTicker(s.every)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case o, ok := <-sh.ch:
			if !ok {
				s.flushShard(sh)
				return
			}
			s.handle(sh, o)
		case <-tick:
			s.syncDirty(sh)
		}
	}
}

func (s *Store) flushShard(sh *shard) {
	for id, ol := range sh.logs {
		if ol.dirty {
			if err := ol.log.Sync(); err != nil {
				s.ioErrors.Add(1)
			} else {
				s.syncs.Add(1)
			}
		}
		_ = ol.log.Close()
		delete(sh.logs, id)
		s.openLogs.Add(-1)
	}
}

func (s *Store) syncDirty(sh *shard) {
	for _, ol := range sh.logs {
		if !ol.dirty {
			continue
		}
		if err := ol.log.Sync(); err != nil {
			// Retrying fsync after a failure is a lie on Linux (the failed
			// pages were marked clean; a later fsync can report success for
			// data that never hit the disk). Quarantine until a snapshot
			// rebuilds the log instead.
			s.ioErrors.Add(1)
			ol.dirty = false
			ol.broken = true
			continue
		}
		ol.dirty = false
		s.syncs.Add(1)
	}
}

// open returns the shard's open log for a session, opening it on first use.
func (s *Store) open(sh *shard, id string) (*openLog, error) {
	if ol, ok := sh.logs[id]; ok {
		return ol, nil
	}
	log, err := s.backend.Open(id)
	if err != nil {
		return nil, err
	}
	ol := &openLog{log: log}
	sh.logs[id] = ol
	s.openLogs.Add(1)
	return ol, nil
}

// handle applies one op to its session's log. I/O failures are counted and
// the op abandoned: a persistence fault degrades durability, it must never
// take the serving path down.
func (s *Store) handle(sh *shard, o op) {
	if o.kind == opBarrier {
		s.syncDirty(sh)
		close(o.ack)
		return
	}
	if o.kind == opEnd {
		// Tombstoning needs no open log — opening one here would mkdir and
		// create an empty wal for a never-persisted session just to remove
		// them (and defeat Tombstone's nothing-to-end fast path).
		if ol, ok := sh.logs[o.id]; ok {
			_ = ol.log.Close()
			delete(sh.logs, o.id)
			s.openLogs.Add(-1)
		}
		if err := s.backend.Tombstone(o.id); err != nil {
			s.ioErrors.Add(1)
			return
		}
		s.tombstones.Add(1)
		return
	}
	ol, err := s.open(sh, o.id)
	if err != nil {
		s.ioErrors.Add(1)
		return
	}
	switch o.kind {
	case opSnapshot:
		// Any snapshot failure quarantines the log, symmetric with the
		// append paths: events appended onto a WAL whose base image failed
		// (the creation-snapshot case) or whose compaction half-finished
		// would form a chain recovery rejects wholesale. Quarantined, the
		// loss stays bounded by one snapshot cadence — the next successful
		// cut rebuilds everything.
		payload, err := json.Marshal(snapshotFromState(o.state))
		if err != nil {
			s.ioErrors.Add(1)
			ol.broken = true
			return
		}
		if err := ol.log.WriteSnapshot(payload); err != nil {
			s.ioErrors.Add(1)
			ol.broken = true
			return
		}
		s.snapshots.Add(1)
		s.snapBytes.Add(uint64(len(payload)))
		// Compaction: everything in the WAL is ≤ the snapshot's version
		// (per-session ops arrive in version order), so the whole log is
		// behind the image and can go. A crash between the two leaves
		// stale-but-skippable records (recovery filters on version).
		if err := ol.log.Truncate(); err != nil {
			s.ioErrors.Add(1)
			ol.broken = true
			return
		}
		s.compacts.Add(1)
		// A complete snapshot+truncate also erased any mid-log tear or
		// version gap a quarantined log carried: clean again.
		ol.broken = false
	case opAppend:
		if ol.broken {
			// The log already lost a record (version gap) or may hold a
			// mid-log tear; either way, appending more would write records
			// recovery rejects — a gapped chain fails the whole session,
			// forever. Drop (and count) until the next snapshot rebuilds
			// the log on a consistent image.
			s.ioErrors.Add(1)
			return
		}
		rec := walRecord{From: o.from, To: o.to, Value: o.value}
		if o.conf != nil {
			rec.Kind = walAdopt
			rec.Config = &core.ConfigurationJSON{Slots: o.conf.K, Assignment: o.conf.Assign}
		} else {
			rec.Kind = walEvents
			rec.Events = o.events
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			// The record is lost either way; a WAL continuing past the gap
			// would flunk recovery's version-chain check and take the whole
			// session with it. Quarantine until the next snapshot.
			s.ioErrors.Add(1)
			ol.broken = true
			return
		}
		if err := ol.log.Append(payload); err != nil {
			// Same logic for EVERY append failure, healed (transient,
			// truncated back — the file is clean but this record is a hole
			// in the version chain) or poisoned (a tear may sit mid-log):
			// stop appending until a snapshot re-baselines. That converts
			// "session permanently unrecoverable at the next restart" into
			// "loss bounded by one snapshot cadence".
			s.ioErrors.Add(1)
			ol.broken = true
			return
		}
		s.appends.Add(1)
		s.appendedEv.Add(uint64(len(o.events)))
		s.bytes.Add(uint64(len(payload) + frameHeaderSize))
		if s.policy == SyncAlways {
			if err := ol.log.Sync(); err != nil {
				// Post-EIO fsync semantics (ext4 marks the failed pages
				// clean) mean the record may be a hole or tear mid-WAL even
				// though Append succeeded — same quarantine as an append
				// failure, for the same reason.
				s.ioErrors.Add(1)
				ol.broken = true
				return
			}
			s.syncs.Add(1)
		} else {
			ol.dirty = true
		}
	}
}

// The walRecord kinds.
const (
	walEvents = "events"
	walAdopt  = "adopt"
)

func snapshotFromState(st *session.State) *snapshotRecord {
	return &snapshotRecord{
		ID:       st.ID,
		Solver:   st.Ref,
		Algo:     st.Algo,
		SizeCap:  st.SizeCap,
		TTL:      st.TTL,
		Version:  st.Version,
		Value:    st.Value,
		Created:  st.Created,
		Instance: *core.InstanceAsJSON(st.Instance),
		Config:   core.ConfigurationJSON{Slots: st.Config.K, Assignment: st.Config.Assign},
		Active:   st.Active,
		Metrics:  st.Metrics,
	}
}

// Stats returns a point-in-time snapshot of the store's counters.
func (s *Store) Stats() Stats {
	depth := 0
	for _, sh := range s.shards {
		depth += len(sh.ch)
	}
	open := int(s.openLogs.Load())
	return Stats{
		Policy:            s.policy.String(),
		Appends:           s.appends.Load(),
		AppendedEvents:    s.appendedEv.Load(),
		AppendedBytes:     s.bytes.Load(),
		Syncs:             s.syncs.Load(),
		Snapshots:         s.snapshots.Load(),
		SnapshotBytes:     s.snapBytes.Load(),
		Compactions:       s.compacts.Load(),
		Tombstones:        s.tombstones.Load(),
		IOErrors:          s.ioErrors.Load(),
		Dropped:           s.dropped.Load(),
		QueueDepth:        depth,
		OpenLogs:          open,
		RecoveredSessions: s.recSessions.Load(),
		ReplayedRecords:   s.recRecords.Load(),
		ReplayedEvents:    s.recEvents.Load(),
		SkippedRecords:    s.recSkipped.Load(),
		TornTails:         s.recTorn.Load(),
		RecoveryErrors:    s.recErrors.Load(),
	}
}
