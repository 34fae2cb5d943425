package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Objective is one declarative latency SLO: "this quantile of this series
// stays under this threshold, measured over this window". The canonical text
// form — what ParseObjective accepts and String re-emits, and what labels
// the /metrics families — reads
//
//	p99 solve < 250ms over 5m
//
// Series names are the tracker's: the route series ("solve", "batch",
// "evaluate", "session_create", "session_events", "session_get", "repair")
// and the per-algorithm series ("algo:AVG-D", "algo:IP", ...). An objective
// over a series that never records simply never burns.
type Objective struct {
	// Series is the tracker series the objective watches.
	Series string
	// Quantile is the guarded quantile in (0,1), e.g. 0.99. Its complement
	// (1 − Quantile) is the error budget: the fraction of requests allowed
	// over the threshold.
	Quantile float64
	// Threshold is the latency bound at that quantile.
	Threshold time.Duration
	// Window is the slow burn-rate window (the SLO's measurement span). The
	// fast window is Window/FastWindowDivisor.
	Window time.Duration
}

// FastWindowDivisor derives the fast burn window from the slow one, the
// multi-window convention: the slow window decides whether budget is really
// burning, the fast window confirms it is STILL burning (and clears quickly
// once the bad traffic stops).
const FastWindowDivisor = 12

// FastWindow is the objective's fast burn-rate window.
func (o Objective) FastWindow() time.Duration {
	return o.Window / FastWindowDivisor
}

// Budget is the error budget: the allowed fraction of requests over the
// threshold (1 − Quantile).
func (o Objective) Budget() float64 { return 1 - o.Quantile }

// String is the canonical text form, also the objective's label on
// /metrics and in /v1/stats.
func (o Objective) String() string {
	return fmt.Sprintf("p%s %s < %s over %s",
		strconv.FormatFloat(o.Quantile*100, 'f', -1, 64), o.Series, o.Threshold, o.Window)
}

// Validate rejects objectives the checker cannot evaluate.
func (o Objective) Validate() error {
	if o.Series == "" {
		return fmt.Errorf("slo: empty series")
	}
	if !(o.Quantile > 0 && o.Quantile < 1) { // also false for NaN
		return fmt.Errorf("slo %q: quantile %g outside (0,1)", o.String(), o.Quantile)
	}
	if o.Threshold <= 0 {
		return fmt.Errorf("slo %q: threshold must be positive", o.String())
	}
	if o.Window < FastWindowDivisor*time.Millisecond {
		return fmt.Errorf("slo %q: window too small (the fast window, window/%d, would be under 1ms)",
			o.String(), FastWindowDivisor)
	}
	return nil
}

// ParseObjective parses the canonical form: exactly six fields,
//
//	p<percentile> <series> < <duration> over <duration>
//
// e.g. "p99 solve < 250ms over 5m" or "p99.9 algo:IP < 1s over 10m".
func ParseObjective(s string) (Objective, error) {
	f := strings.Fields(s)
	if len(f) != 6 || f[2] != "<" || f[4] != "over" {
		return Objective{}, fmt.Errorf("slo %q: want \"p<pct> <series> < <duration> over <duration>\"", s)
	}
	if !strings.HasPrefix(f[0], "p") {
		return Objective{}, fmt.Errorf("slo %q: quantile %q must start with 'p'", s, f[0])
	}
	pct, err := strconv.ParseFloat(f[0][1:], 64)
	if err != nil {
		return Objective{}, fmt.Errorf("slo %q: quantile %q: %v", s, f[0], err)
	}
	threshold, err := time.ParseDuration(f[3])
	if err != nil {
		return Objective{}, fmt.Errorf("slo %q: threshold %q: %v", s, f[3], err)
	}
	window, err := time.ParseDuration(f[5])
	if err != nil {
		return Objective{}, fmt.Errorf("slo %q: window %q: %v", s, f[5], err)
	}
	o := Objective{Series: f[1], Quantile: pct / 100, Threshold: threshold, Window: window}
	if err := o.Validate(); err != nil {
		return Objective{}, err
	}
	return o, nil
}

// ParseObjectives parses a comma-separated list of objectives (durations
// never contain commas, so the split is unambiguous). Empty items are
// skipped, so a trailing comma is harmless.
func ParseObjectives(s string) ([]Objective, error) {
	var out []Objective
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		o, err := ParseObjective(item)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}
