package registry_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/registry"
	"github.com/svgic/svgic/internal/utility"
)

func TestNewValidatesParams(t *testing.T) {
	cases := []struct {
		name    string
		algo    string
		params  registry.Params
		wantErr string
	}{
		{"unknown solver", "gurobi", nil, "unknown solver"},
		{"unknown param", "avgd", registry.Params{"rr": 1.0}, `no parameter "rr"`},
		{"wrong type", "avgd", registry.Params{"r": "high"}, "want float"},
		{"non-integral int", "avg", registry.Params{"repeats": 2.5}, "integer"},
		{"negative uint", "avg", registry.Params{"seed": -3}, "non-negative"},
		// JSON numbers arrive as float64; out of range they must not wrap
		// (lpPolish would turn negative and disable polish, and distinct
		// seeds would share one cache key).
		{"int above range", "avgd", registry.Params{"lpPolish": 1e19}, "integer in"},
		{"int far above range", "avgd", registry.Params{"lpPolish": 2e19}, "integer in"},
		{"int below range", "avgd", registry.Params{"lpPolish": -1e19}, "integer in"},
		{"uint above range", "avg", registry.Params{"seed": 1e20}, "below 2^64"},
		{"uint far above range", "avg", registry.Params{"seed": 3e20}, "below 2^64"},
		{"uint at 2^64", "avg", registry.Params{"seed": float64(math.MaxUint64)}, "below 2^64"},
		{"bad duration", "ip", registry.Params{"timeLimit": "soon"}, "duration"},
		{"range check", "avgd", registry.Params{"sizeCap": -2}, "sizeCap"},
		{"bad strategy", "ip", registry.Params{"strategy": "quantum"}, "strategy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := registry.New(tc.algo, tc.params)
			if err == nil {
				t.Fatalf("New(%q, %v) accepted", tc.algo, tc.params)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestNewCoercesJSONValues: parameters arriving from JSON (numbers as
// float64, durations as strings) build the same solver as native Go values.
func TestNewCoercesJSONValues(t *testing.T) {
	var fromJSON registry.Params
	if err := json.Unmarshal([]byte(`{"seed": 9, "repeats": 2, "sizeCap": 3}`), &fromJSON); err != nil {
		t.Fatal(err)
	}
	a, err := registry.New("avg", fromJSON)
	if err != nil {
		t.Fatal(err)
	}
	b, err := registry.New("avg", registry.Params{"seed": uint64(9), "repeats": 2, "sizeCap": 3})
	if err != nil {
		t.Fatal(err)
	}
	ka := a.(core.CacheKeyer).CacheKey()
	kb := b.(core.CacheKeyer).CacheKey()
	if ka != kb {
		t.Errorf("JSON-decoded params key %q != native params key %q", ka, kb)
	}
	ip, err := registry.New("ip", registry.Params{"timeLimit": "90s"})
	if err != nil {
		t.Fatal(err)
	}
	ip2, err := registry.New("ip", registry.Params{"timeLimit": 90 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if ip.(core.CacheKeyer).CacheKey() != ip2.(core.CacheKeyer).CacheKey() {
		t.Error("duration string and time.Duration produce different keys")
	}
}

// TestCacheKeysSeparateAlgorithmsAndParams is the registry half of the
// non-aliasing acceptance criterion: keys differ across algorithms and
// across parameterizations, and defaults key identically to explicit
// defaults.
func TestCacheKeysSeparateAlgorithmsAndParams(t *testing.T) {
	key := func(algo string, p registry.Params) string {
		t.Helper()
		s, err := registry.New(algo, p)
		if err != nil {
			t.Fatal(err)
		}
		return s.(core.CacheKeyer).CacheKey()
	}
	if key("avg", nil) == key("avgd", nil) {
		t.Error("avg and avgd share a cache key")
	}
	if key("avgd", nil) != key("avgd", registry.Params{"r": core.DefaultR}) {
		t.Error("explicit default r keys differently from the implicit default")
	}
	if key("avgd", nil) == key("avgd", registry.Params{"r": 1.0}) {
		t.Error("different r values share a cache key")
	}
}

func TestRegisterRejectsBadSpecs(t *testing.T) {
	mk := func(p registry.Resolved) (core.Solver, error) { return registry.MustNew("per", nil), nil }
	cases := []struct {
		name string
		spec registry.Spec
		want string
	}{
		{"bad name", registry.Spec{Name: "Bad Name", New: mk}, "invalid solver name"},
		{"no constructor", registry.Spec{Name: "noctor"}, "no constructor"},
		{"dup param", registry.Spec{Name: "dupparam", New: mk,
			Params: []registry.ParamSpec{{Name: "x", Kind: registry.KindInt}, {Name: "x", Kind: registry.KindInt}}},
			"twice"},
		{"bad default", registry.Spec{Name: "baddefault", New: mk,
			Params: []registry.ParamSpec{{Name: "x", Kind: registry.KindInt, Default: "nope"}}},
			"bad default"},
		{"duplicate registration", registry.Spec{Name: "avgd", New: mk}, "already registered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := registry.Register(tc.spec)
			if err == nil {
				t.Fatalf("Register(%q) accepted", tc.spec.Name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecomposeSafety: the registry wrapper forwards component-decomposition
// safety, which flips with the SVGIC-ST size cap.
func TestDecomposeSafety(t *testing.T) {
	safe := func(algo string, p registry.Params) bool {
		t.Helper()
		s, err := registry.New(algo, p)
		if err != nil {
			t.Fatal(err)
		}
		ds, ok := s.(core.ComponentSafe)
		return ok && ds.DecomposeSafe()
	}
	if !safe("avgd", nil) || !safe("avg", nil) || !safe("per", nil) || !safe("ip", nil) {
		t.Error("uncapped avgd/avg/per/ip should be decomposition-safe")
	}
	if safe("avgd", registry.Params{"sizeCap": 2}) || safe("avg", registry.Params{"sizeCap": 2}) {
		t.Error("ST-capped solvers must not be decomposition-safe")
	}
	if safe("fmg", nil) || safe("sdp", nil) || safe("grf", nil) {
		t.Error("whole-group/clustering baselines must not be decomposition-safe")
	}
}

// TestLPParamsHonorCancellation: lpPasses, lpPolish and lpRestarts arrive
// unbounded in request params, so the LP itself must stop when the request's
// context does. An AVG or AVG-D solve asking for 2^30 polish steps, canceled
// from another goroutine, returns context.Canceled instead of pinning its
// worker for as long as the LP runs.
func TestLPParamsHonorCancellation(t *testing.T) {
	in, err := datasets.Generate(datasets.Timik, 24, 50, 5, 0.5, utility.PIERT, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"avg", "avgd"} {
		t.Run(algo, func(t *testing.T) {
			s := registry.MustNew(algo, registry.Params{"lpPolish": 1 << 30})
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := s.Solve(ctx, in)
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(time.Minute):
				t.Fatal("Solve still running a minute after cancel")
			}
		})
	}
}
