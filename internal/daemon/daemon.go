// Package daemon is svgicd's flag contract: the serving flags with their
// names, defaults and help text, and the mapping from those flags to the
// default solver. cmd/svgicd parses its command line with it, and
// cmd/svgicload parses the svgicd command line it launches the same way, so
// every flag has one meaning in both binaries.
package daemon

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/registry"
	"github.com/svgic/svgic/internal/server"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/store"
)

// Config holds svgicd's serving flags.
type Config struct {
	Addr        string
	Workers     int
	Cache       int
	Algo        string
	Seed        uint64
	SizeCap     int
	Timeout     time.Duration
	MaxTimeout  time.Duration
	MaxInFlight int
	MaxBatch    int

	SLO                 string
	SLODegradeAlgo      string
	NoAdaptiveAdmission bool

	MaxSessions    int
	SessionShards  int
	SessionTTL     time.Duration
	RepairInterval time.Duration
	RepairMargin   float64

	DataDir       string
	Fsync         string
	FsyncInterval time.Duration
	SnapshotEvery int
}

// Flags registers the serving flags on fs and returns the Config they fill
// when fs is parsed.
func Flags(fs *flag.FlagSet) *Config {
	cfg := new(Config)
	fs.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.Workers, "workers", 0, "solver workers (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.Cache, "cache", engine.DefaultCacheSize, "result cache size (negative disables)")
	fs.StringVar(&cfg.Algo, "algo", "avgd", "default solver: "+strings.Join(registry.Names(), "|"))
	fs.Uint64Var(&cfg.Seed, "seed", 1, "random seed (solvers with a seed parameter)")
	fs.IntVar(&cfg.SizeCap, "size-cap", 0, "SVGIC-ST subgroup size cap M (0 = uncapped)")
	fs.DurationVar(&cfg.Timeout, "timeout", server.DefaultTimeout, "default per-request solve deadline")
	fs.DurationVar(&cfg.MaxTimeout, "max-timeout", server.DefaultMaxTimeout, "cap on client-requested timeouts")
	fs.IntVar(&cfg.MaxInFlight, "max-inflight", 0, "admission limit (0 = 4×workers); excess load is shed with 429")
	fs.IntVar(&cfg.MaxBatch, "max-batch", server.DefaultMaxBatch, "max instances per batch request")

	fs.StringVar(&cfg.SLO, "slo", "",
		`latency objectives, comma-separated "p<pct> <series> < <duration> over <duration>" (e.g. "p99 solve < 250ms over 5m"); series are routes (solve, batch, evaluate, session_create, session_events, session_get), per-algorithm solves (algo:<NAME>) or drift repair (repair). Empty = measure only, no objectives`)
	fs.StringVar(&cfg.SLODegradeAlgo, "slo-degrade-algo", "avgd",
		"cheap fallback algorithm expensive requests (ip, sdp) are rerouted to while an objective is burning")
	fs.BoolVar(&cfg.NoAdaptiveAdmission, "no-adaptive-admission", false,
		"report SLO burn rates in /v1/stats and /metrics but never degrade or shed on them")

	fs.IntVar(&cfg.MaxSessions, "max-sessions", session.DefaultMaxSessions,
		"live-session admission bound; creates beyond it are shed with 429")
	fs.IntVar(&cfg.SessionShards, "session-shards", 0,
		"hash-partitioned session shard count: each shard is an independent lock domain with its own eviction/repair goroutine (0 = GOMAXPROCS, 1 = single-lock)")
	fs.DurationVar(&cfg.SessionTTL, "session-ttl", 10*time.Minute,
		"evict live sessions idle longer than this (0 = never)")
	fs.DurationVar(&cfg.RepairInterval, "repair-interval", 0,
		"drift repair: periodically re-solve each live session through the engine and swap in the result when it beats the incremental configuration (0 = off)")
	fs.Float64Var(&cfg.RepairMargin, "repair-margin", session.DefaultRepairMargin,
		"drift repair: relative improvement a re-solve must show to be swapped in (0 = the 0.01 default; negative = swap on any strict improvement)")

	fs.StringVar(&cfg.DataDir, "data-dir", "",
		"durable session store directory: live sessions get a write-ahead log + snapshots there and are recovered on restart (empty = in-memory only)")
	fs.StringVar(&cfg.Fsync, "fsync", "interval",
		"WAL fsync policy: always (every record durable before the writer moves on) | interval (bounded loss window) | off (OS decides)")
	fs.DurationVar(&cfg.FsyncInterval, "fsync-interval", store.DefaultSyncInterval,
		"dirty-log fsync cadence under -fsync interval")
	fs.IntVar(&cfg.SnapshotEvery, "snapshot-every", session.DefaultSnapshotEvery,
		"cut a session snapshot (and compact its WAL) every N applied events; bounds recovery replay to the post-snapshot tail")
	return cfg
}

// Solver resolves the default solver from the registry, mapping the flags
// onto whichever parameters the solver's schema declares, and returns the
// parameters too (the server needs them so explicit {"algo": default}
// requests resolve identically). The flag help and the unknown-algorithm
// error are both derived from the registry, so a newly registered solver is
// reachable without touching this file. A -size-cap the solver has no
// parameter for is an error, as it is for a capped session: the solver
// would ignore the cap and serve oversized subgroups.
func (c *Config) Solver() (func() core.Solver, registry.Params, error) {
	spec, ok := registry.Lookup(c.Algo)
	if !ok {
		return nil, nil, fmt.Errorf("unknown algorithm %q (want one of: %s)",
			c.Algo, strings.Join(registry.Names(), ", "))
	}
	params := registry.Params{}
	for _, p := range spec.Params {
		switch p.Name {
		case "seed":
			params["seed"] = c.Seed
		case "sizeCap":
			if c.SizeCap > 0 {
				params["sizeCap"] = c.SizeCap
			}
		}
	}
	if _, capped := params["sizeCap"]; c.SizeCap > 0 && !capped {
		return nil, nil, fmt.Errorf("algorithm %q has no sizeCap parameter: it cannot solve the capped problem -size-cap=%d asks for", spec.Name, c.SizeCap)
	}
	// Validate once up front so a bad flag combination fails at startup, not
	// on the first request.
	if _, err := registry.New(spec.Name, params); err != nil {
		return nil, nil, err
	}
	return func() core.Solver {
		s, err := registry.New(spec.Name, params)
		if err != nil {
			panic(err) // validated above; cannot fail
		}
		return s
	}, params, nil
}
