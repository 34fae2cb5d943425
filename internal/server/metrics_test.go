package server

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/svgic/svgic/internal/engine"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/telemetry"
)

// parseLabels splits a rendered label list into key/value pairs, failing
// on any escape the text exposition format lacks (it has only \\, \" and
// \n).
func parseLabels(t *testing.T, line, labels string) [][2]string {
	t.Helper()
	var pairs [][2]string
	for labels != "" {
		key, rest, ok := strings.Cut(labels, `="`)
		if !ok {
			t.Fatalf("%q: malformed labels", line)
		}
		var value strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] != '\\' {
				value.WriteByte(rest[i])
				continue
			}
			i++
			switch {
			case i == len(rest):
				t.Fatalf("%q: label value ends in a backslash", line)
			case rest[i] == 'n':
				value.WriteByte('\n')
			case rest[i] == '\\' || rest[i] == '"':
				value.WriteByte(rest[i])
			default:
				t.Fatalf(`%q: escape \%c is not in the exposition format`, line, rest[i])
			}
		}
		if i == len(rest) {
			t.Fatalf("%q: unterminated label value", line)
		}
		pairs = append(pairs, [2]string{key, value.String()})
		labels = strings.TrimPrefix(rest[i+1:], ",")
	}
	return pairs
}

// checkExposition parses one /metrics scrape and fails the test unless
// every family has one HELP and one TYPE line ahead of its contiguous
// samples, label values use only the format's escapes, and every histogram
// series has buckets that never decrease and a +Inf bucket equal to its
// _count.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{}
	var fam string // family whose block is open
	var typed bool // the open block has its TYPE line
	lastBucket := map[string]float64{}
	infBucket := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if _, dup := types[fields[2]]; dup {
				t.Fatalf("second HELP line for %s", fields[2])
			}
			fam, typed = fields[2], false
			types[fam] = ""
		case strings.HasPrefix(line, "# TYPE "):
			if fields[2] != fam || typed {
				t.Fatalf("%q: TYPE line outside its family's block", line)
			}
			typed, types[fam] = true, fields[3]
		default:
			sp := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if sp < 0 || err != nil {
				t.Fatalf("%q: malformed sample", line)
			}
			name, labels, _ := strings.Cut(strings.TrimSuffix(line[:sp], "}"), "{")
			pairs := parseLabels(t, line, labels)
			base := name
			if types[fam] == "histogram" {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					base = strings.TrimSuffix(base, suffix)
				}
			}
			if base != fam || !typed {
				t.Fatalf("%q: sample outside its family's block (open block %q)", line, fam)
			}
			if types[fam] != "histogram" {
				continue
			}
			var series, le string
			for _, p := range pairs {
				if p[0] == "le" {
					le = p[1]
				} else {
					series += p[0] + "=" + p[1] + ","
				}
			}
			switch {
			case strings.HasSuffix(name, "_bucket") && le == "+Inf":
				infBucket[series] = v
			case strings.HasSuffix(name, "_bucket"):
				if last, ok := lastBucket[series]; ok && v < last {
					t.Fatalf("%q: bucket below the previous one (%g)", line, last)
				}
				lastBucket[series] = v
			case strings.HasSuffix(name, "_count"):
				if infBucket[series] != v || lastBucket[series] > v {
					t.Fatalf("%q: _count disagrees with the buckets (+Inf %g, last %g)", line, infBucket[series], lastBucket[series])
				}
			}
		}
	}
}

// TestMetricsHistogramsConsistentWhileRecording scrapes /metrics while
// another goroutine records into the scraped series. Every value of a
// series must come from one read of its window: reading the window once
// per bucket let a sample arriving mid-scrape make a bucket fall below the
// previous one.
func TestMetricsHistogramsConsistentWhileRecording(t *testing.T) {
	tr := telemetry.NewTracker(telemetry.TrackerOptions{})
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{}), Telemetry: tr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Samples below and above every bucket bound: each one moves the
		// fraction under every bound at once.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d := 500 * time.Microsecond
			if i%2 == 1 {
				d = 20 * time.Second
			}
			tr.Record("solve", d)
		}
	}()
	for i := 0; i < 200; i++ {
		checkExposition(t, string(get(t, ts.URL+"/metrics")))
	}
	close(stop)
	wg.Wait()
}

// TestMetricsEscapesLabelValues: an objective's series may be any token
// without spaces. A zero-width space, a quote and a backslash in it must
// reach the slo and series labels through the format's escapes only.
func TestMetricsEscapesLabelValues(t *testing.T) {
	series := "so\u200blve\"\\x"
	obj, err := telemetry.ParseObjective("p99 " + series + " < 1ms over 1m")
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracker(telemetry.TrackerOptions{})
	tr.Record(series, 5*time.Millisecond)
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Options{Engine: eng, Sessions: testManager(t, eng, session.Options{}), Telemetry: tr, SLOs: []telemetry.Objective{obj}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	text := string(get(t, ts.URL+"/metrics"))
	checkExposition(t, text)
	escaped := `so` + "\u200b" + `lve\"\\x`
	for _, want := range []string{
		`svgicd_slo_state{slo="p99 ` + escaped + ` < 1ms over 1m0s"} `,
		`svgicd_latency_seconds_count{series="` + escaped + `"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
