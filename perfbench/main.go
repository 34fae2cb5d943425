// Command perfbench is svgic's end-to-end benchmark: it drives a real
// svgicd child over loopback with closed-loop clients on three workloads
// (cold-solve, hot-solve, durable-session), checks every response, and
// prints the end-to-end metrics; with -trace 1 it replays the same
// workload against an in-process stack with spans at the layer seams and
// prints the per-layer metrics instead. See README.md.
//
//	bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 21 --trace 0
//	bash perfbench/run.sh --workload all
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "cold-solve | hot-solve | durable-session | all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same request bytes")
	seconds := flag.Int("seconds", 21, "length of the timed phase, split over the launches")
	trace := flag.Int("trace", 0, "1 = traced in-process replay printing per-layer metrics")
	bin := flag.String("svgicd", "", "svgicd binary under test (run.sh builds it)")
	work := flag.String("work", "", "directory for per-run temp data dirs and span files")
	flag.Parse()
	if *bin == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -svgicd and -work are required; run it through perfbench/run.sh")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, name := range names {
		cfg := runConfig{name: name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin, work: *work}
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(cfg)
		} else {
			res, err = runE2E(cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.print(name)
	}
}

type runConfig struct {
	name    string
	seed    uint64
	seconds time.Duration
	bin     string
	work    string
}

// tempDir makes a fresh directory under the work dir for one run.
func (c runConfig) tempDir() (string, error) {
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.work, c.name+"-")
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints as its last line, plus the context lines
// printed before it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes    []string // printed before the JSON line
	problems []string // failed checks; any makes Correct false
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) print(name string) {
	for k, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problem("metric %s is %v: no op in the timed phase succeeded", k, m.Value)
			r.Metrics[k] = metric{Unit: m.Unit}
		}
	}
	r.Correct = r.Failed == 0 && len(r.problems) == 0
	for _, n := range r.notes {
		fmt.Printf("%s: %s\n", name, n)
	}
	for _, p := range r.problems {
		fmt.Printf("%s: CHECK FAILED: %s\n", name, p)
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var line strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&line, " %s=%.6g%s", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	fmt.Printf("%s: attempted=%d failed=%d%s\n", name, r.Attempted, r.Failed, line.String())
	out, _ := json.Marshal(r)
	fmt.Println(string(out))
}

// window is one slice of a launch's timed phase: the ops that started in
// it, its length, the child's CPU ticks over it, and the share of the
// machine's CPU time the hypervisor stole over it.
type window struct {
	ops   []op
	width time.Duration
	ticks uint64
	steal float64
}

// windowTarget is the intended window length.
const windowTarget = time.Second

// keptWindows is the share of the timed phase's windows (1/keptWindows)
// the end-to-end timings are computed over: those in which the host stole
// the least CPU time from the machine. The choice reads only the host's
// steal counter, never the program's own figures, so a stall or slowdown
// of the program is kept in the same proportion as it occurs.
const keptWindows = 4

// setTimings sets the end-to-end timing metrics over the kept windows: p50
// and p90 are nearest-rank percentiles of the latencies of the ops that
// started in them (a failed op counts as infinitely slow), throughput is
// their successful ops per second of the windows' length, and
// cpu_ms_per_op is the child's CPU time over the windows divided by their
// ops.
func setTimings(res *result, ws []window) {
	byLow := slices.Clone(ws)
	slices.SortStableFunc(byLow, func(a, b window) int { return cmp.Compare(a.steal, b.steal) })
	kept := byLow[:(len(byLow)+keptWindows-1)/keptWindows]
	p50, p90, tput, cpu, n := timings(kept)
	res.set("p50_ms", "ms", p50)
	res.set("p90_ms", "ms", p90)
	res.set("throughput", "ops/s", tput)
	res.set("cpu_ms_per_op", "ms", cpu)
	res.note("p50_ms and p90_ms over %d ops: the %d of %d windows of %v with the least host steal", n, len(kept), len(ws), ws[0].width)
	var st []string
	for _, w := range ws {
		st = append(st, fmt.Sprintf("%.1f%%/%d", 100*w.steal, len(w.ops)))
	}
	res.note("host steal/ops per window: %s", strings.Join(st, " "))
}

// timings computes the timing metrics over the ops and CPU time of ws.
func timings(ws []window) (p50, p90, tput, cpu float64, n int) {
	var ms []float64
	var ok int
	var ticks uint64
	var wall time.Duration
	for _, w := range ws {
		for i := range w.ops {
			if w.ops[i].failed() {
				ms = append(ms, math.Inf(1))
			} else {
				ms = append(ms, float64(w.ops[i].lat)/1e6)
				ok++
			}
		}
		ticks += w.ticks
		wall += w.width
	}
	slices.Sort(ms)
	return rank(ms, 0.50), rank(ms, 0.90), float64(ok) / wall.Seconds(),
		float64(ticks) * 1000 / ticksPerSecond / float64(len(ms)), len(ms)
}

// rank is the nearest-rank percentile of sorted values, NaN when there
// are none.
func rank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles is the nearest-rank first quartile, the median and the
// nearest-rank third quartile of xs.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return [3]float64{rank(s, 0.25), median(s), rank(s, 0.75)}
}

// runE2E is one end-to-end run: generate inputs, then setups launches of
// svgicd, each timed from launch through its warm-up and then serving its
// share of the timed phase; then the output checks. setup_s is the setup
// time of the launch whose setup saw the least host steal.
func runE2E(cfg runConfig) (*result, error) {
	genStart := time.Now()
	in, err := generate(cfg.name, cfg.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.note("seed=%d inputs sha256=%s (generated in %.1fs)", cfg.seed, in.digest, time.Since(genStart).Seconds())
	dir, err := cfg.tempDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	flags := childFlags(cfg.name, filepath.Join(dir, "data"))

	prepStart := time.Now()
	w, ds, err := newWorkload(cfg, in, dir)
	if err != nil {
		return nil, err
	}
	if ds != nil {
		res.note("filled the data dir and replayed offline in %.1fs", time.Since(prepStart).Seconds())
	}

	// Every launch is a setup, timed into setup_s, followed by its share of
	// the timed phase. Spreading the timed phase over the launches samples
	// three processes and a longer stretch of the host's time.
	var setup, setupSteal []float64
	var ws []window
	for i := 0; i < setups; i++ {
		if ds != nil {
			if err := ds.reset(); err != nil {
				return nil, err
			}
		}
		h0, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		c, err := launch(cfg.bin, flags)
		if err != nil {
			return nil, err
		}
		t := &target{base: c.base, hc: newClient()}
		w.setup(t, res)
		setup = append(setup, time.Since(start).Seconds())
		h1, err := readHostCPU()
		if err != nil {
			c.stop()
			return nil, err
		}
		setupSteal = append(setupSteal, h0.stealShare(h1))
		w.afterSetup(t, res)
		lw, err := timedPhase(c, w, t, cfg.seconds/setups)
		if err := errors.Join(err, c.stop()); err != nil {
			return nil, err
		}
		ws = append(ws, lw...)
		p50, _, tput, cpu, _ := timings(lw)
		res.note("launch %d: setup %.3fs at host steal %.1f%%; timed %.4g ops/s, p50 %.4gms, cpu %.4gms/op",
			i+1, setup[i], 100*setupSteal[i], tput, p50, cpu)
	}
	setTimings(res, ws)
	res.set("setup_s", "s", setup[slices.Index(setupSteal, slices.Min(setupSteal))])
	checkStart := time.Now()
	w.check(res)
	res.note("checked in %.1fs", time.Since(checkStart).Seconds())
	return res, nil
}

// timedPhase runs the workload's timed phase for d on one launch, cut
// into equal windows of about windowTarget; at every window boundary it
// reads the child's CPU time and the host's steal counter. Each op falls in
// the window it started in.
func timedPhase(c *child, w e2eWorkload, t *target, d time.Duration) ([]window, error) {
	n := max(int(d/windowTarget), 1)
	width := d / time.Duration(n)
	type sample struct {
		ticks uint64
		host  hostCPU
	}
	take := func() (sample, error) {
		tk, err := c.cpuTicks()
		if err != nil {
			return sample{}, err
		}
		h, err := readHostCPU()
		return sample{tk, h}, err
	}
	samples := make([]sample, n+1)
	t0 := time.Now()
	var err error
	if samples[0], err = take(); err != nil {
		return nil, err
	}
	sampled := make(chan error, 1)
	go func() {
		for i := 1; i <= n; i++ {
			time.Sleep(time.Until(t0.Add(time.Duration(i) * width)))
			var err error
			if samples[i], err = take(); err != nil {
				sampled <- err
				return
			}
		}
		sampled <- nil
	}()
	ops := w.timed(t, t0.Add(d))
	if err := <-sampled; err != nil {
		return nil, err
	}
	ws := make([]window, n)
	for i := range ws {
		ws[i] = window{width: width, ticks: samples[i+1].ticks - samples[i].ticks, steal: samples[i].host.stealShare(samples[i+1].host)}
	}
	for i := range ops {
		k := min(int(ops[i].start.Sub(t0)/width), n-1)
		ws[k].ops = append(ws[k].ops, ops[i])
	}
	return ws, nil
}

// newWorkload builds the client side of a workload; for durable-session it
// also fills the data dir (dir/data) through the svgicd under test.
func newWorkload(cfg runConfig, in *inputs, dir string) (e2eWorkload, *durableSession, error) {
	switch cfg.name {
	case "cold-solve":
		return &coldSolve{in: in}, nil, nil
	case "hot-solve":
		return &hotSolve{in: in}, nil, nil
	}
	ds := &durableSession{in: in, dataDir: filepath.Join(dir, "data"), fillDir: filepath.Join(dir, "filled")}
	if err := ds.prepare(cfg.bin, childFlags(cfg.name, ds.dataDir)); err != nil {
		return nil, nil, err
	}
	return ds, ds, nil
}

// e2eWorkload is one workload's client side of an end-to-end run.
type e2eWorkload interface {
	setup(t *target, res *result)      // cache fill and warm-up, timed into setup_s
	afterSetup(t *target, res *result) // untimed checks after each setup
	// timed runs one timed pass until deadline and returns its ops; the
	// workload keeps every pass's outcome for check.
	timed(t *target, deadline time.Time) []op
	check(res *result) // output checks and the quality metric
}
