// Package registry is the named solver registry of the SVGIC library: every
// paper algorithm and baseline is registered under a stable lowercase name
// with a typed, validated parameter schema, so the engine, the HTTP server,
// both CLIs and the experiment harness resolve solvers uniformly instead of
// each maintaining its own switch statement.
//
// A registry-built solver is wrapped with a canonical cache key derived from
// its name and resolved parameters; result caches and request coalescers key
// on it (via core.CacheKeyer), so two algorithms — or one algorithm under two
// parameterizations — can never alias each other's results.
//
// The registry is extensible at runtime: Register accepts new Specs (the
// public svgic.RegisterSolver delegates here), and everything downstream —
// svgicd's -algo flag, the /v1/algorithms endpoint, the conformance suite —
// picks new entries up without code changes.
package registry

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/svgic/svgic/internal/core"
)

// Params carries caller-supplied solver parameters by name. Values may be
// native Go types or the types encoding/json produces (float64 for every
// number, string for durations); resolution coerces them against the solver's
// ParamSpec schema and rejects unknown names, wrong types and out-of-range
// values.
type Params map[string]any

// ParamKind is the declared type of one solver parameter.
type ParamKind string

// Parameter kinds.
const (
	KindInt      ParamKind = "int"
	KindUint     ParamKind = "uint"
	KindFloat    ParamKind = "float"
	KindBool     ParamKind = "bool"
	KindDuration ParamKind = "duration" // Go duration string, e.g. "30s"
	KindString   ParamKind = "string"
)

// ParamSpec declares one parameter of a registered solver. The JSON shape is
// served verbatim by GET /v1/algorithms.
type ParamSpec struct {
	Name        string    `json:"name"`
	Kind        ParamKind `json:"kind"`
	Default     any       `json:"default,omitempty"`
	Description string    `json:"description,omitempty"`
}

// Spec registers one solver: its canonical name, display name, parameter
// schema and constructor.
type Spec struct {
	// Name is the canonical registry key: lowercase letters, digits and
	// dashes (e.g. "avgd").
	Name string
	// Display is the human-readable algorithm name reported in Solutions and
	// experiment output (e.g. "AVG-D").
	Display string
	// Description is a one-line summary (served by /v1/algorithms).
	Description string
	// Deterministic declares that equal inputs and equal parameters produce
	// bit-identical configurations (all built-in solvers are: randomized ones
	// are seeded through a parameter).
	Deterministic bool
	// Params is the parameter schema; resolution validates against it.
	Params []ParamSpec
	// New constructs a solver from fully resolved parameters (defaults
	// filled, types coerced). It may reject out-of-range combinations.
	New func(p Resolved) (core.Solver, error)
}

// Resolved is a validated, default-filled parameter set handed to Spec.New.
// The typed getters panic on schema violations, which cannot occur for
// parameters resolved against the declaring spec.
type Resolved struct {
	vals map[string]any
}

// Int returns an int parameter.
func (r Resolved) Int(name string) int { return r.vals[name].(int) }

// Uint returns a uint parameter.
func (r Resolved) Uint(name string) uint64 { return r.vals[name].(uint64) }

// Float returns a float parameter.
func (r Resolved) Float(name string) float64 { return r.vals[name].(float64) }

// Bool returns a bool parameter.
func (r Resolved) Bool(name string) bool { return r.vals[name].(bool) }

// Duration returns a duration parameter.
func (r Resolved) Duration(name string) time.Duration { return r.vals[name].(time.Duration) }

// String returns a string parameter.
func (r Resolved) String(name string) string { return r.vals[name].(string) }

var (
	mu    sync.RWMutex
	specs = map[string]Spec{}
)

// Register adds a solver spec to the registry. It fails on an invalid name,
// a duplicate registration, a nil constructor or a default that does not
// match its declared kind — catching schema bugs at registration instead of
// first use.
func Register(s Spec) error {
	if !validName(s.Name) {
		return fmt.Errorf("registry: invalid solver name %q (want lowercase letters, digits, dashes)", s.Name)
	}
	if s.New == nil {
		return fmt.Errorf("registry: solver %q has no constructor", s.Name)
	}
	if s.Display == "" {
		s.Display = strings.ToUpper(s.Name)
	}
	seen := map[string]bool{}
	for _, p := range s.Params {
		if p.Name == "" {
			return fmt.Errorf("registry: solver %q declares an unnamed parameter", s.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("registry: solver %q declares parameter %q twice", s.Name, p.Name)
		}
		seen[p.Name] = true
		if p.Default != nil {
			if _, err := coerce(p, p.Default); err != nil {
				return fmt.Errorf("registry: solver %q: bad default for %s: %v", s.Name, p.Name, err)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := specs[s.Name]; dup {
		return fmt.Errorf("registry: solver %q already registered", s.Name)
	}
	specs[s.Name] = s
	return nil
}

// MustRegister is Register for package wiring; it panics on error.
func MustRegister(s Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return false
		}
	}
	return true
}

// Lookup returns the spec registered under name.
func Lookup(name string) (Spec, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := specs[strings.ToLower(name)]
	return s, ok
}

// Names returns every registered solver name, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Specs returns every registered spec in name order.
func Specs() []Spec {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Spec, 0, len(specs))
	for _, s := range specs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// New builds the named solver with the given parameters (nil for all
// defaults). The returned solver carries a canonical cache key
// (core.CacheKeyer) of the name plus every resolved parameter, so distinctly
// parameterized solvers never share cache or coalescing entries.
func New(name string, p Params) (core.Solver, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown solver %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	resolved, err := resolve(spec, p)
	if err != nil {
		return nil, err
	}
	inner, err := spec.New(resolved)
	if err != nil {
		return nil, fmt.Errorf("registry: solver %q: %w", spec.Name, err)
	}
	return &keyed{
		Solver:  inner,
		display: spec.Display,
		key:     canonicalKey(spec, resolved),
	}, nil
}

// MustNew is New for static internal wiring; it panics on error.
func MustNew(name string, p Params) core.Solver {
	s, err := New(name, p)
	if err != nil {
		panic(err)
	}
	return s
}

// Key returns the canonical cache key New would assign for the named solver
// under the given parameters, without constructing it — for callers building
// their own memoization or coalescing layers on top of the registry (the
// counterpart of core.Fingerprint on the instance side).
func Key(name string, p Params) (string, error) {
	spec, ok := Lookup(name)
	if !ok {
		return "", fmt.Errorf("registry: unknown solver %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	resolved, err := resolve(spec, p)
	if err != nil {
		return "", err
	}
	return canonicalKey(spec, resolved), nil
}

// resolve validates caller parameters against the schema and fills defaults.
func resolve(spec Spec, p Params) (Resolved, error) {
	byName := make(map[string]ParamSpec, len(spec.Params))
	for _, ps := range spec.Params {
		byName[ps.Name] = ps
	}
	vals := make(map[string]any, len(spec.Params))
	for name, raw := range p {
		ps, ok := byName[name]
		if !ok {
			return Resolved{}, fmt.Errorf("registry: solver %q has no parameter %q (known: %s)",
				spec.Name, name, paramNames(spec))
		}
		v, err := coerce(ps, raw)
		if err != nil {
			return Resolved{}, fmt.Errorf("registry: solver %q parameter %q: %v", spec.Name, name, err)
		}
		vals[name] = v
	}
	for _, ps := range spec.Params {
		if _, set := vals[ps.Name]; set {
			continue
		}
		if ps.Default != nil {
			v, err := coerce(ps, ps.Default) // validated at Register; cannot fail
			if err != nil {
				return Resolved{}, err
			}
			vals[ps.Name] = v
		} else {
			vals[ps.Name] = zeroOf(ps.Kind)
		}
	}
	return Resolved{vals: vals}, nil
}

func paramNames(spec Spec) string {
	if len(spec.Params) == 0 {
		return "none"
	}
	names := make([]string, len(spec.Params))
	for i, ps := range spec.Params {
		names[i] = ps.Name
	}
	return strings.Join(names, ", ")
}

func zeroOf(k ParamKind) any {
	switch k {
	case KindInt:
		return 0
	case KindUint:
		return uint64(0)
	case KindFloat:
		return 0.0
	case KindBool:
		return false
	case KindDuration:
		return time.Duration(0)
	default:
		return ""
	}
}

// coerce converts a caller value (native Go or JSON-decoded) to the
// parameter's canonical type.
func coerce(ps ParamSpec, raw any) (any, error) {
	switch ps.Kind {
	case KindInt:
		switch v := raw.(type) {
		case int:
			return v, nil
		case int64:
			return int(v), nil
		case uint64:
			return int(v), nil
		case float64:
			// Converting a float outside the integer type's range gives an
			// implementation-defined value, so check the range first (which
			// also rejects ±Inf; NaN fails the Trunc comparison).
			if v != math.Trunc(v) || v < math.MinInt || v >= -math.MinInt {
				return nil, fmt.Errorf("want an integer in [%d, %d], got %v", math.MinInt, math.MaxInt, v)
			}
			return int(v), nil
		}
	case KindUint:
		switch v := raw.(type) {
		case uint64:
			return v, nil
		case uint:
			return uint64(v), nil
		case int:
			if v < 0 {
				return nil, fmt.Errorf("want a non-negative integer, got %d", v)
			}
			return uint64(v), nil
		case int64:
			if v < 0 {
				return nil, fmt.Errorf("want a non-negative integer, got %d", v)
			}
			return uint64(v), nil
		case float64:
			if v != math.Trunc(v) || v < 0 || v >= math.MaxUint64+1 {
				return nil, fmt.Errorf("want a non-negative integer below 2^64, got %v", v)
			}
			return uint64(v), nil
		}
	case KindFloat:
		switch v := raw.(type) {
		case float64:
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, fmt.Errorf("want a finite number, got %v", v)
			}
			return v, nil
		case int:
			return float64(v), nil
		}
	case KindBool:
		if v, ok := raw.(bool); ok {
			return v, nil
		}
	case KindDuration:
		switch v := raw.(type) {
		case time.Duration:
			return v, nil
		case string:
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("want a duration like \"30s\", got %q", v)
			}
			return d, nil
		}
	case KindString:
		if v, ok := raw.(string); ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("want %s, got %T", ps.Kind, raw)
}

// canonicalKey renders the solver identity for caches and coalescers: the
// registry name plus every resolved parameter in name order, so equal
// parameterizations — however expressed — share one key and unequal ones
// never collide.
func canonicalKey(spec Spec, r Resolved) string {
	names := make([]string, 0, len(r.vals))
	for n := range r.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(spec.Name)
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%v", n, r.vals[n])
	}
	b.WriteByte('}')
	return b.String()
}

// keyed wraps a constructed solver with its registry identity.
type keyed struct {
	core.Solver
	display string
	key     string
}

// Name reports the registry display name, overriding the inner solver's.
func (k *keyed) Name() string { return k.display }

// Solve delegates to the inner solver and stamps the registry display name
// onto the solution, so a custom registration's served algorithm name always
// matches what /v1/algorithms advertises.
func (k *keyed) Solve(ctx context.Context, in *core.Instance) (*core.Solution, error) {
	sol, err := k.Solver.Solve(ctx, in)
	if err != nil {
		return nil, err
	}
	sol.Algorithm = k.display
	return sol, nil
}

// CacheKey implements core.CacheKeyer.
func (k *keyed) CacheKey() string { return k.key }

// DecomposeSafe implements core.ComponentSafe by delegating to the inner
// solver; solvers without the method are treated as unsafe.
func (k *keyed) DecomposeSafe() bool {
	if ds, ok := k.Solver.(core.ComponentSafe); ok {
		return ds.DecomposeSafe()
	}
	return false
}

// WarmStart implements core.WarmStarter by delegating to the inner solver,
// returning nil when it does not support warm starts. The warm variant is
// returned UNWRAPPED — deliberately without the registry cache key — because
// its results depend on the incumbent configuration, not just the instance,
// and must never enter a keyed result cache.
func (k *keyed) WarmStart(conf *core.Configuration) core.Solver {
	if ws, ok := k.Solver.(core.WarmStarter); ok {
		return ws.WarmStart(conf)
	}
	return nil
}
