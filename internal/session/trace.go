package session

import (
	"fmt"
	"math/rand/v2"

	"github.com/svgic/svgic/internal/core"
)

// TraceJSON is a replayable live-session workload: the starting instance
// plus an event stream valid against it (every leave/update names a user
// active at its point in the stream; joined users get the ids the session
// will assign). cmd/datagen emits traces, svgicload -dynamic and
// `make session-smoke` replay them, and the server e2e tests replay the same
// trace offline to assert bit-for-bit equivalence.
type TraceJSON struct {
	Instance core.InstanceJSON `json:"instance"`
	SizeCap  int               `json:"sizeCap,omitempty"`
	Events   []Event           `json:"events"`
}

// NewTrace builds a trace over an instance: the interchange form of the
// instance plus count generated churn events.
func NewTrace(in *core.Instance, sizeCap, count int, seed uint64) *TraceJSON {
	return &TraceJSON{
		Instance: *core.InstanceAsJSON(in),
		SizeCap:  sizeCap,
		Events:   GenerateEvents(in.NumUsers(), in.NumItems, count, seed),
	}
}

// Validate checks the trace's instance and the structure of every event.
func (t *TraceJSON) Validate() error {
	if _, err := core.InstanceFromJSON(&t.Instance); err != nil {
		return err
	}
	if t.SizeCap < 0 {
		return fmt.Errorf("session: trace sizeCap %d is negative", t.SizeCap)
	}
	for i := range t.Events {
		if err := t.Events[i].Validate(); err != nil {
			return fmt.Errorf("session: trace event %d: %w", i, err)
		}
	}
	return nil
}

// GenerateEvents produces a deterministic churn stream for a store that
// starts with initialUsers active shoppers over numItems items: a mix of
// joins (fresh preferences, 1–3 friend ties to standing shoppers), leaves,
// preference updates and periodic rebalances. The generator simulates the
// active set — including the ids a live session will assign to joiners — so
// the stream replays cleanly against any session started from an instance
// with those dimensions.
func GenerateEvents(initialUsers, numItems, count int, seed uint64) []Event {
	rng := rand.New(rand.NewPCG(seed, 0x5e55104))
	active := make([]int, initialUsers)
	for u := range active {
		active[u] = u
	}
	next := initialUsers
	randPref := func() []float64 {
		pref := make([]float64, numItems)
		hot := rng.IntN(numItems)
		for c := range pref {
			pref[c] = 0.1 * rng.Float64()
			if c%5 == hot%5 {
				pref[c] += 0.8 * rng.Float64()
			}
		}
		return pref
	}
	events := make([]Event, 0, count)
	for len(events) < count {
		switch x := rng.Float64(); {
		case x < 0.35:
			pref := randPref()
			want := 1 + rng.IntN(3)
			seen := make(map[int]struct{}, want)
			var ties []TieJSON
			for len(ties) < want && len(seen) < len(active) {
				f := active[rng.IntN(len(active))]
				if _, dup := seen[f]; dup {
					continue
				}
				seen[f] = struct{}{}
				out := make([]float64, numItems)
				inn := make([]float64, numItems)
				for c := range out {
					out[c] = 0.3 * pref[c] * rng.Float64()
					inn[c] = 0.2 * pref[c] * rng.Float64()
				}
				ties = append(ties, TieJSON{ID: f, Out: out, In: inn})
			}
			events = append(events, Event{Type: EventJoin, Pref: pref, Friends: ties})
			active = append(active, next)
			next++
		case x < 0.60 && len(active) > 2:
			i := rng.IntN(len(active))
			u := active[i]
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
			events = append(events, Event{Type: EventLeave, User: u})
		case x < 0.85 && len(active) > 0:
			u := active[rng.IntN(len(active))]
			events = append(events, Event{Type: EventUpdatePreference, User: u, Pref: randPref()})
		default:
			events = append(events, Event{Type: EventRebalance, MaxPasses: 2})
		}
	}
	return events
}
