package server

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// GET /metrics: the serving counters in Prometheus text exposition format
// (version 0.0.4), so restarts, recovery and drift repair are observable by
// a standard scraper without parsing the /v1/stats JSON. The endpoint is
// handwritten over StatsSnapshot rather than pulling in a client library —
// the format is three line shapes, and the container must not grow
// dependencies for it.
//
// The stats structs are the metric table. A /v1/stats field is exported by
// tagging it metric:"family[,label]", with help:"…" on the first field of
// each family; exposition.walk reads the tags:
//
//   - a tagged uint64, int, float64 or bool field is one sample (a bool
//     renders as 0 or 1); a family is a counter when its name ends in
//     _total, and a gauge otherwise;
//   - "family,key=value" adds a constant label;
//   - on a map, "family,label" labels each element with its sorted key;
//     when the elements are structs the family is empty and the element's
//     own tags name the families;
//   - untagged struct fields, and non-nil pointers to structs, are walked
//     in place; any other untagged field appears only in /v1/stats.
//
// The families below that are computed at scrape time rather than stored in
// a stats field are the only ones written by hand. Naming follows the
// Prometheus conventions: one svgicd_* namespace, _total suffixes on
// counters, base units, and per-algorithm counters as an algo="" label
// rather than a name explosion.

// latencyBounds are the latency histogram's bucket bounds, in seconds.
var latencyBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// labelEscaper applies the exposition format's three label-value escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// withLabel appends one key="value" pair to a rendered label list.
func withLabel(labels, key, value string) string {
	pair := key + `="` + labelEscaper.Replace(value) + `"`
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// family is one metric family's block: its HELP and TYPE lines, then its
// samples in the order they were added.
type family struct {
	b strings.Builder
}

// sample appends one `name{labels} value` line.
func (f *family) sample(name, labels, value string) {
	f.b.WriteString(name)
	if labels != "" {
		f.b.WriteString("{" + labels + "}")
	}
	f.b.WriteString(" " + value + "\n")
}

// exposition collects samples by family, so each family is written once,
// with all of its samples together, however the walk reaches them.
type exposition struct {
	order []*family
	fams  map[string]*family
}

// family returns the named family, starting its block on first use.
func (e *exposition) family(name, typ, help string) *family {
	if f := e.fams[name]; f != nil {
		return f
	}
	f := &family{}
	fmt.Fprintf(&f.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	e.fams[name] = f
	e.order = append(e.order, f)
	return f
}

// walk renders the tagged fields of the struct v, each sample carrying the
// inherited labels.
func (e *exposition) walk(v reflect.Value, labels string) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		tag, tagged := f.Tag.Lookup("metric")
		if !tagged {
			switch {
			case fv.Kind() == reflect.Struct:
				e.walk(fv, labels)
			case fv.Kind() == reflect.Pointer && !fv.IsNil() && fv.Elem().Kind() == reflect.Struct:
				e.walk(fv.Elem(), labels)
			}
			continue
		}
		name, label, _ := strings.Cut(tag, ",")
		help := f.Tag.Get("help")
		switch fv.Kind() {
		case reflect.Map:
			keys := fv.MapKeys()
			sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
			for _, k := range keys {
				e.element(name, help, fv.MapIndex(k), withLabel(labels, label, k.String()))
			}
		default:
			if key, value, ok := strings.Cut(label, "="); ok {
				e.element(name, help, fv, withLabel(labels, key, value))
			} else {
				e.element(name, help, fv, labels)
			}
		}
	}
}

// element renders one value of a tagged field: a struct is walked under the
// element's labels, a scalar is a sample of the named family.
func (e *exposition) element(name, help string, v reflect.Value, labels string) {
	var value string
	switch v.Kind() {
	case reflect.Struct:
		e.walk(v, labels)
		return
	case reflect.Bool:
		value = "0"
		if v.Bool() {
			value = "1"
		}
	case reflect.Int:
		value = strconv.FormatInt(v.Int(), 10)
	case reflect.Uint64:
		value = strconv.FormatUint(v.Uint(), 10)
	case reflect.Float64:
		value = formatFloat(v.Float())
	default:
		panic(fmt.Sprintf("server: metric %s tags a %s field", name, v.Type()))
	}
	typ := "gauge"
	if strings.HasSuffix(name, "_total") {
		typ = "counter"
	}
	e.family(name, typ, help).sample(name, labels, value)
}

// ladderNum and stateNum map the ladder rung and an objective's state to
// their gauge values; "normal" and "ok" read as 0.
var (
	ladderNum = map[string]float64{"degrade": 1, "shed": 2}
	stateNum  = map[string]float64{"recovering": 1, "breached": 2}
)

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.StatsSnapshot()
	e := exposition{fams: make(map[string]*family)}
	e.walk(reflect.ValueOf(st), "")

	e.family("svgicd_engine_avg_solve_seconds", "gauge", "Mean solver wall time.").
		sample("svgicd_engine_avg_solve_seconds", "", formatFloat(st.Engine.AvgLatencyMS/1000))

	// SLO burn rates and the ladder rung (present only with -slo).
	if slo := st.SLO; slo != nil {
		e.family("svgicd_admission_level", "gauge", "Degradation ladder rung: 0 normal, 1 degrade, 2 shed.").
			sample("svgicd_admission_level", "", formatFloat(ladderNum[slo.Level]))
		burn := e.family("svgicd_slo_burn_rate", "gauge", "Error-budget burn rate per objective and window (1.0 = burning exactly the budget).")
		state := e.family("svgicd_slo_state", "gauge", "Objective state: 0 ok, 1 recovering, 2 breached.")
		observed := e.family("svgicd_slo_observed_quantile_seconds", "gauge", "The objective's quantile observed over its window.")
		for _, o := range slo.Objectives {
			l := withLabel("", "slo", o.Name)
			burn.sample("svgicd_slo_burn_rate", withLabel(l, "window", "fast"), formatFloat(o.FastBurn))
			burn.sample("svgicd_slo_burn_rate", withLabel(l, "window", "slow"), formatFloat(o.SlowBurn))
			state.sample("svgicd_slo_state", l, formatFloat(stateNum[o.State]))
			observed.sample("svgicd_slo_observed_quantile_seconds", l, formatFloat(o.ObservedMS/1000))
		}
	}

	// Latency digests: one histogram family over the per-series sliding
	// windows (samples expire with the window, so unlike a stock Prometheus
	// histogram these can decrease between scrapes), plus explicit quantile
	// gauges so dashboards get p50/p90/p99 without a histogram_quantile over
	// coarse buckets. Every value of a series is read from one merged digest,
	// so a sample recorded mid-scrape cannot make its buckets disagree.
	for _, name := range s.tel.Names() {
		win := s.tel.Window(name)
		if win == nil {
			continue
		}
		d := win.Merged()
		n := d.Count()
		if n == 0 {
			continue
		}
		series := withLabel("", "series", name)
		hist := e.family("svgicd_latency_seconds", "histogram", "Windowed latency distribution per series (routes, algo:*, repair).")
		for _, le := range latencyBounds {
			hist.sample("svgicd_latency_seconds_bucket", withLabel(series, "le", formatFloat(le)), formatFloat(d.CDF(le)*float64(n)))
		}
		hist.sample("svgicd_latency_seconds_bucket", withLabel(series, "le", "+Inf"), strconv.FormatUint(n, 10))
		hist.sample("svgicd_latency_seconds_sum", series, formatFloat(d.Sum()))
		hist.sample("svgicd_latency_seconds_count", series, strconv.FormatUint(n, 10))
		quantiles := e.family("svgicd_latency_quantile_seconds", "gauge", "Windowed latency quantiles per series.")
		for _, q := range []float64{0.5, 0.9, 0.99} {
			quantiles.sample("svgicd_latency_quantile_seconds", withLabel(series, "quantile", formatFloat(q)), formatFloat(d.Quantile(q)))
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	for _, f := range e.order {
		_, _ = w.Write([]byte(f.b.String()))
	}
}
