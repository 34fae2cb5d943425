// Command svgicload is svgicd's load generator. It launches the svgicd
// binary it is given as a child on a free loopback port, drives it, then
// sends SIGTERM and fails unless the daemon drains and exits 0 within 30s:
//
//	svgicload [flags] path/to/svgicd [svgicd flags]
//
// Everything after the binary path is svgicd's command line, forwarded
// verbatim with -addr appended, and parsed here with svgicd's own flag set
// (internal/daemon), so -repair-interval, -max-timeout, -data-dir, -fsync
// and the default solver mean the same to both binaries.
//
// The default mode is a solve storm: -requests solves from -conc clients, a
// -dup-frac share repeating one hot instance and the rest cycling a pool of
// distinct ones, then one probe each of the remaining endpoints. -dynamic
// drives live sessions instead (create, churn events or a datagen -trace,
// read back, delete), and -dynamic -crash SIGKILLs the daemon mid-churn,
// restarts it on its -data-dir and verifies every recovered session against
// an offline replay:
//
//	svgicload -requests 300 -dup-frac 0.5 -conc 8 ./bin/svgicd -workers 2 -max-inflight 16
//	svgicload -dynamic -sessions 4 -requests 200 -seed 9 ./bin/svgicd -repair-interval 50ms
//	svgicload -dynamic -crash -sessions 4 -requests 240 ./bin/svgicd -data-dir /tmp/svgic -fsync always
//
// Every mode reports latency percentiles and the daemon's /v1/stats
// counters, and fails on a transport error or any status other than the
// request's success status and 429 (admission control shedding load). The
// storm also fails when -dup-frac repeats bodies but the daemon's /v1/solve
// decode memo answered none of them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	svgic "github.com/svgic/svgic"
	"github.com/svgic/svgic/internal/daemon"
)

func main() {
	err := run(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "svgicload:", err)
		os.Exit(1)
	}
}

const (
	// healthTimeout bounds the wait for a started daemon's /healthz.
	healthTimeout = 15 * time.Second
	// drainTimeout bounds the wait for the daemon to exit after SIGTERM.
	drainTimeout = 30 * time.Second
)

// options are svgicload's own flags.
type options struct {
	algos            []string
	seed             uint64
	requests         int
	dupFrac          float64
	conc             int
	assertSLODegrade bool
	dynamic          bool
	sessions         int
	trace            string
	crash            bool
}

func run(args []string) error {
	fs := flag.NewFlagSet("svgicload", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: svgicload [flags] path/to/svgicd [svgicd flags]")
		fs.PrintDefaults()
	}
	var o options
	algo := fs.String("algo", "avgd",
		"algorithm the requests select: "+strings.Join(svgic.SolverNames(), "|")+" (a comma-separated list mixes them)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the -dynamic session instances and their churn")
	fs.IntVar(&o.requests, "requests", 300, "total requests (-dynamic: total events)")
	fs.Float64Var(&o.dupFrac, "dup-frac", 0.5, "fraction of requests that repeat the hot instance")
	fs.IntVar(&o.conc, "conc", 8, "concurrent clients")
	fs.BoolVar(&o.assertSLODegrade, "assert-slo-degrade", false,
		"fail unless the run drove the daemon's SLO controller to degrade at least one request without flapping (what make slo-smoke asserts)")
	fs.BoolVar(&o.dynamic, "dynamic", false, "drive live-session churn against /v1/sessions instead of /v1/solve")
	fs.IntVar(&o.sessions, "sessions", 4, "-dynamic: concurrent live sessions")
	fs.StringVar(&o.trace, "trace", "", "-dynamic: replay a datagen -events trace file into every session (empty = generate churn)")
	fs.BoolVar(&o.crash, "crash", false,
		"-dynamic: SIGKILL the daemon mid-churn, restart it on its -data-dir, and assert every recovered session matches an offline replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("no svgicd binary given (usage: svgicload [flags] path/to/svgicd [svgicd flags])")
	}
	daemonArgs := append([]string(nil), fs.Args()[1:]...)
	dfs := flag.NewFlagSet("svgicd", flag.ContinueOnError)
	cfg := daemon.Flags(dfs)
	if err := dfs.Parse(daemonArgs); err != nil {
		return fmt.Errorf("svgicd flags: %w", err)
	}

	for _, f := range []struct {
		name string
		v    int
	}{{"conc", o.conc}, {"requests", o.requests}, {"sessions", o.sessions}} {
		if f.v < 1 {
			return fmt.Errorf("-%s %d: want at least 1", f.name, f.v)
		}
	}
	o.algos = strings.Split(*algo, ",")
	for _, a := range o.algos {
		if _, ok := svgic.LookupSolver(a); !ok {
			return fmt.Errorf("-algo: unknown algorithm %q (want one of: %s)", a, strings.Join(svgic.SolverNames(), ", "))
		}
	}
	if _, _, err := cfg.Solver(); err != nil {
		return fmt.Errorf("svgicd flags: %w", err)
	}
	if o.crash {
		if err := crashPreconditions(fs, &o, cfg); err != nil {
			return err
		}
		// Sessions run the daemon's default solver, which the verifier
		// replays. An eviction tombstone mid-run would (correctly) erase a
		// session the verifier still wants to read back.
		o.algos = []string{""}
		daemonArgs = append(daemonArgs, "-session-ttl", "0s")
	}
	var plans []*plan
	if o.dynamic {
		var err error
		if plans, err = makePlans(&o); err != nil {
			return err
		}
	}

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	c := &child{
		bin:    fs.Arg(0),
		args:   append(daemonArgs, "-addr", addr),
		base:   "http://" + addr,
		client: &http.Client{Timeout: 2 * cfg.MaxTimeout},
	}
	if err := c.start(); err != nil {
		return err
	}
	defer c.kill()
	switch {
	case o.crash:
		err = crash(c, cfg, plans)
	case o.dynamic:
		err = churn(c, cfg, &o, plans)
	default:
		err = storm(c, &o)
	}
	return errors.Join(err, c.stop())
}

// crashPreconditions refuses -crash runs whose verdict would mean nothing.
func crashPreconditions(fs *flag.FlagSet, o *options, cfg *daemon.Config) error {
	switch {
	case !o.dynamic:
		return errors.New("-crash needs -dynamic: it crashes the daemon under live-session churn")
	case cfg.DataDir == "":
		return errors.New("-crash needs svgicd -data-dir: the restarted daemon recovers its sessions from there")
	case cfg.RepairInterval != 0:
		return errors.New("-crash verifies against offline event replay, which drift repair would diverge from; drop svgicd -repair-interval")
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "algo" {
			err = errors.New("-crash sessions run svgicd's default solver, the one the verifier replays; choose it with svgicd -algo, not svgicload -algo")
		}
	})
	return err
}

// child is the svgicd process under load. Crash mode restarts it on the
// same address.
type child struct {
	bin    string
	args   []string
	base   string // http://127.0.0.1:<port>
	client *http.Client
	cmd    *exec.Cmd // the current process; nil until a start succeeds
}

// start launches the daemon, its output going to stderr, and waits until
// /healthz answers 200. A daemon that never does is killed.
func (c *child) start() error {
	cmd := exec.Command(c.bin, c.args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting svgicd: %w", err)
	}
	c.cmd = cmd
	deadline := time.Now().Add(healthTimeout)
	for {
		sh := do(c.client, "healthz", http.MethodGet, c.base+"/healthz", nil, nil)
		if sh.err == nil && sh.status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			c.kill()
			return fmt.Errorf("svgicd not healthy within %v: status %d, err %v", healthTimeout, sh.status, sh.err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon and reaps it; once it is reaped, kill does
// nothing.
func (c *child) kill() {
	if c.cmd == nil || c.cmd.ProcessState != nil {
		return
	}
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// stop sends SIGTERM and fails unless the daemon drains and exits 0 within
// drainTimeout; a daemon still running then is killed. A daemon already
// reaped (one that failed to start) has nothing to drain.
func (c *child) stop() error {
	if c.cmd == nil || c.cmd.ProcessState != nil {
		return nil
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return fmt.Errorf("signalling svgicd: %w", err)
	}
	overdue := time.AfterFunc(drainTimeout, func() { _ = c.cmd.Process.Kill() })
	err := c.cmd.Wait()
	if !overdue.Stop() {
		return fmt.Errorf("svgicd did not exit within %v of SIGTERM", drainTimeout)
	}
	if err != nil {
		return fmt.Errorf("svgicd after SIGTERM: %w", err)
	}
	return nil
}

// freeAddr picks an ephemeral loopback address for the daemon. (Another
// process can take the port between the close and the daemon's bind;
// harmless at smoke scale.)
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr, nil
}
