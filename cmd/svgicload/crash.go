package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	svgic "github.com/svgic/svgic"
	"github.com/svgic/svgic/internal/daemon"
	"github.com/svgic/svgic/internal/server"
)

// Crash mode (-dynamic -crash) drives session churn at a daemon serving on
// -data-dir, SIGKILLs it mid-stream — no drain, no flush — restarts it on
// the same directory, and verifies every recovered session against an
// offline replay:
//
//	recovered (version, value, configuration)
//	  == session.Replay(initial solve, events[:version])
//
// The recovered version may trail the acknowledged one (an acknowledged
// event's durability is bounded by the fsync policy and the writer queue —
// that is the documented contract), and may even lead it (a batch can be
// applied and persisted after the kill severed the response); what crash
// mode proves is PREFIX CONSISTENCY: whatever version came back, the state
// is bit-for-bit the deterministic replay of exactly that many events,
// under every fsync policy. Drift repair must be off, because repair swaps
// are not reproducible by offline event replay (they are logged as adopt
// records and covered by the Go e2e tests instead).
func crash(c *child, cfg *daemon.Config, plans []*plan) error {
	total := 0
	for _, p := range plans {
		total += len(p.events)
	}
	// The acknowledgement that crosses half the planned events triggers the
	// SIGKILL; a workload that finishes first is killed when it finishes,
	// so every run gets a restart and a verify pass. Stream errors after
	// the kill are its expected end; before it they fail the run.
	killAt := max(uint64(total/2), 1)
	var acked atomic.Uint64
	var killed atomic.Bool
	kill := func() {
		if killed.CompareAndSwap(false, true) {
			fmt.Fprintf(os.Stderr, "crash: SIGKILL after %d/%d acked events\n", acked.Load(), total)
			c.kill()
		}
	}
	onAck := func(events int) {
		if acked.Add(uint64(events)) >= killAt {
			kill()
		}
	}
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i, p := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := driveSession(c, p, onAck); err != nil && !errors.Is(err, errShed) && !killed.Load() {
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	kill()
	streamErrs := 0
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "crash: before the kill: %v\n", err)
			streamErrs++
		}
	}

	// Recovery runs before the listener accepts, so the first healthz
	// already reflects the recovered state.
	fmt.Fprintln(os.Stderr, "crash: restarting svgicd on the same -data-dir")
	if err := c.start(); err != nil {
		return fmt.Errorf("restarting: %w", err)
	}
	verified, lost, bad := 0, 0, 0
	for _, p := range plans {
		if p.id == "" {
			continue
		}
		var got server.SessionResponse
		sh := do(c.client, "get", http.MethodGet, c.base+"/v1/sessions/"+p.id, nil, &got)
		if sh.err != nil {
			return fmt.Errorf("reading recovered session %s: %w", p.id, sh.err)
		}
		if sh.status == http.StatusNotFound {
			// The creation image was still in the writer queue at the kill:
			// lost, as the fsync/queue contract allows. Count it — a smoke
			// run that loses everything proves nothing and fails below.
			lost++
			fmt.Fprintf(os.Stderr, "crash: session %s (acked v%d) not recovered — creation image lost in the kill window\n", p.id, p.acked)
			continue
		}
		if sh.status != http.StatusOK {
			return fmt.Errorf("reading recovered session %s: status %d", p.id, sh.status)
		}
		if err := verify(cfg, p, &got); err != nil {
			bad++
			fmt.Fprintf(os.Stderr, "crash: session %s FAILED verification: %v\n", p.id, err)
			continue
		}
		verified++
		fmt.Printf("crash: session %s recovered at v%d (acked v%d): matches offline replay of %d events\n",
			p.id, got.Version, p.acked, got.Version)
	}

	if _, err := printStats(c); err != nil {
		fmt.Fprintf(os.Stderr, "crash: %v\n", err)
	}
	fmt.Printf("crash: verified=%d lost=%d failed=%d (fsync=%s, %d/%d events acked before SIGKILL)\n",
		verified, lost, bad, cfg.Fsync, acked.Load(), total)
	if streamErrs > 0 {
		return fmt.Errorf("%d session stream(s) failed before the kill", streamErrs)
	}
	if bad > 0 {
		return fmt.Errorf("%d recovered session(s) diverged from offline replay", bad)
	}
	if verified == 0 {
		return fmt.Errorf("no session survived the crash — the smoke proved nothing (lost=%d)", lost)
	}
	return nil
}

// verify checks one recovered session against the ground truth: solve the
// plan's instance the way the daemon's engine did, with the daemon's own
// default solver, replay exactly got.Version events through the shared
// Apply semantics, and compare value, configuration and active set bit for
// bit.
func verify(cfg *daemon.Config, p *plan, got *server.SessionResponse) error {
	n := got.Version
	if n > uint64(len(p.events)) {
		return fmt.Errorf("recovered version %d exceeds the %d events ever sent", n, len(p.events))
	}
	// A capped session's solver is the daemon's default with the session's
	// cap overriding -size-cap, as the server resolves it.
	capped := *cfg
	if p.sizeCap > 0 {
		capped.SizeCap = p.sizeCap
	}
	newSolver, _, err := capped.Solver()
	if err != nil {
		return err
	}
	in, err := svgic.InstanceFromJSON(&p.instance)
	if err != nil {
		return err
	}
	// The daemon's create path solved through its engine (same solver,
	// component decomposition included), so the offline baseline must too —
	// a direct solver call can legally produce a different optimal
	// assignment on multi-component instances.
	eng := svgic.NewEngine(svgic.EngineOptions{Workers: 2, NewSolver: newSolver})
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sol, err := eng.Solve(ctx, in)
	if err != nil {
		return err
	}
	ds, err := svgic.NewDynamicSession(in, sol.Config, p.sizeCap)
	if err != nil {
		return err
	}
	if applied, err := svgic.ReplaySessionEvents(ds, p.events[:n]); err != nil {
		return fmt.Errorf("offline replay stopped at event %d: %w", applied, err)
	}
	if want := ds.Value(); got.Value != want {
		return fmt.Errorf("value %v != offline replay value %v at version %d", got.Value, want, n)
	}
	wantConf := ds.Config()
	if got.Slots != wantConf.K {
		return fmt.Errorf("slots %d != offline %d", got.Slots, wantConf.K)
	}
	if len(got.Assignment) != len(wantConf.Assign) {
		return fmt.Errorf("assignment rows %d != offline %d", len(got.Assignment), len(wantConf.Assign))
	}
	for u := range wantConf.Assign {
		if len(got.Assignment[u]) != len(wantConf.Assign[u]) {
			return fmt.Errorf("assignment[%d] has %d slots != offline %d", u, len(got.Assignment[u]), len(wantConf.Assign[u]))
		}
		for s := range wantConf.Assign[u] {
			if got.Assignment[u][s] != wantConf.Assign[u][s] {
				return fmt.Errorf("assignment[%d][%d] = %d != offline %d", u, s, got.Assignment[u][s], wantConf.Assign[u][s])
			}
		}
	}
	// Membership, not just count: a wrong active SET can coexist with a
	// matching value (departed users' rows are zeroed and contribute
	// nothing), but would diverge on the next join/leave. Both sides are
	// ascending.
	want := ds.ActiveUsers()
	if len(got.Active) != len(want) {
		return fmt.Errorf("active count %d != offline %d", len(got.Active), len(want))
	}
	for i := range want {
		if got.Active[i] != want[i] {
			return fmt.Errorf("active[%d] = %d != offline %d", i, got.Active[i], want[i])
		}
	}
	return nil
}
