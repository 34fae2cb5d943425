package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/svgic/svgic/internal/graph"
)

// JSON interchange format for instances and configurations, shared by the
// svgic CLI, the datagen tool and library users persisting problems.
//
//	{
//	  "users": 4, "items": 5, "slots": 3, "lambda": 0.5,
//	  "social": [{"from": 0, "to": 1, "tau": [0.2, ...]}, ...],
//	  "edges":  [{"from": 2, "to": 3}],        // edges with all-zero τ
//	  "preferences": [[0.8, ...], ...]
//	}

// EdgeJSON is one directed edge with optional per-item social utilities.
type EdgeJSON struct {
	From int       `json:"from"`
	To   int       `json:"to"`
	Tau  []float64 `json:"tau,omitempty"`
}

// InstanceJSON is the interchange form of an Instance.
type InstanceJSON struct {
	Users       int         `json:"users"`
	Items       int         `json:"items"`
	Slots       int         `json:"slots"`
	Lambda      float64     `json:"lambda"`
	Edges       []EdgeJSON  `json:"edges,omitempty"`
	Social      []EdgeJSON  `json:"social,omitempty"`
	Preferences [][]float64 `json:"preferences"`
}

// InstanceAsJSON converts an instance to its interchange struct. The
// preference matrix is referenced, not copied; marshal before mutating.
func InstanceAsJSON(in *Instance) *InstanceJSON {
	ij := &InstanceJSON{
		Users:       in.NumUsers(),
		Items:       in.NumItems,
		Slots:       in.K,
		Lambda:      in.Lambda,
		Preferences: in.Pref,
	}
	for _, e := range in.G.Edges() {
		u, v := e[0], e[1]
		tau := make([]float64, in.NumItems)
		any := false
		for c := 0; c < in.NumItems; c++ {
			tau[c] = in.Tau(u, v, c)
			if tau[c] != 0 {
				any = true
			}
		}
		if any {
			ij.Social = append(ij.Social, EdgeJSON{From: u, To: v, Tau: tau})
		} else {
			ij.Edges = append(ij.Edges, EdgeJSON{From: u, To: v})
		}
	}
	return ij
}

// MarshalInstance encodes an instance as indented JSON.
func MarshalInstance(in *Instance) ([]byte, error) {
	return json.MarshalIndent(InstanceAsJSON(in), "", "  ")
}

// UnmarshalInstance decodes an instance from its JSON interchange form,
// validating it. Unknown fields are tolerated — use UnmarshalInstanceStrict
// on untrusted input, where a misspelled field must not be silently dropped.
func UnmarshalInstance(data []byte) (*Instance, error) {
	var ij InstanceJSON
	if err := json.Unmarshal(data, &ij); err != nil {
		return nil, fmt.Errorf("core: decoding instance: %w", err)
	}
	return InstanceFromJSON(&ij)
}

// UnmarshalInstanceStrict decodes and validates an instance, rejecting
// unknown JSON fields. A tolerant decode silently drops a typo like
// "preference" (for "preferences") and hands the solver a zero-utility
// instance; ingestion paths fed by users — the CLI and the svgicd HTTP
// server — must use the strict form.
func UnmarshalInstanceStrict(data []byte) (*Instance, error) {
	var ij InstanceJSON
	if err := DecodeStrict(bytes.NewReader(data), &ij); err != nil {
		return nil, fmt.Errorf("core: decoding instance: %w", err)
	}
	return InstanceFromJSON(&ij)
}

// DecodeStrict decodes exactly one JSON document from r into v with unknown
// fields disallowed, and rejects trailing non-whitespace content.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second document (or stray token) after the first is an error: the
	// serving path must not half-read a malformed request body. A genuine
	// read failure (dropped connection, body-size limit) is reported as
	// itself, not mislabeled as trailing content.
	switch tok, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("reading past JSON document: %w", err)
	default:
		return fmt.Errorf("unexpected content after JSON document: %v", tok)
	}
}

// InstanceFromJSON builds a validated instance from the interchange struct.
func InstanceFromJSON(ij *InstanceJSON) (*Instance, error) {
	if ij.Users <= 0 || ij.Items <= 0 || ij.Slots <= 0 {
		return nil, fmt.Errorf("core: users/items/slots must be positive (got %d/%d/%d)",
			ij.Users, ij.Items, ij.Slots)
	}
	// Check the declared sizes against the document before allocating
	// users × items, so memory follows the document's size (which the
	// caller bounds) rather than two numbers in it.
	if len(ij.Preferences) != ij.Users {
		return nil, fmt.Errorf("core: preferences rows = %d, want %d", len(ij.Preferences), ij.Users)
	}
	for u, row := range ij.Preferences {
		if len(row) != ij.Items {
			return nil, fmt.Errorf("core: preferences[%d] has %d items, want %d", u, len(row), ij.Items)
		}
	}
	g := graph.New(ij.Users)
	for _, edges := range [][]EdgeJSON{ij.Edges, ij.Social} {
		for _, e := range edges {
			if e.From < 0 || e.From >= ij.Users || e.To < 0 || e.To >= ij.Users {
				return nil, fmt.Errorf("core: edge (%d,%d) has an endpoint outside users [0,%d)", e.From, e.To, ij.Users)
			}
			g.AddEdge(e.From, e.To)
		}
	}
	in := NewInstance(g, ij.Items, ij.Slots, ij.Lambda)
	for u, row := range ij.Preferences {
		copy(in.Pref[u], row)
	}
	for _, e := range ij.Social {
		if len(e.Tau) > ij.Items {
			return nil, fmt.Errorf("core: social τ for (%d,%d) has %d items, want ≤ %d",
				e.From, e.To, len(e.Tau), ij.Items)
		}
		for c, t := range e.Tau {
			if t == 0 {
				continue
			}
			if err := in.SetTau(e.From, e.To, c, t); err != nil {
				return nil, err
			}
		}
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// ConfigurationJSON is the interchange form of a configuration.
type ConfigurationJSON struct {
	Slots      int     `json:"slots"`
	Assignment [][]int `json:"assignment"`
}

// MarshalConfiguration encodes a configuration as indented JSON.
func MarshalConfiguration(conf *Configuration) ([]byte, error) {
	return json.MarshalIndent(ConfigurationJSON{Slots: conf.K, Assignment: conf.Assign}, "", "  ")
}

// UnmarshalConfiguration decodes a configuration (structure only; validate
// against an instance with Configuration.Validate).
func UnmarshalConfiguration(data []byte) (*Configuration, error) {
	var cj ConfigurationJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return nil, fmt.Errorf("core: decoding configuration: %w", err)
	}
	if cj.Slots <= 0 {
		return nil, fmt.Errorf("core: configuration slots = %d", cj.Slots)
	}
	for u, row := range cj.Assignment {
		if len(row) != cj.Slots {
			return nil, fmt.Errorf("core: assignment row %d has %d slots, want %d", u, len(row), cj.Slots)
		}
	}
	return &Configuration{Assign: cj.Assignment, K: cj.Slots}, nil
}
