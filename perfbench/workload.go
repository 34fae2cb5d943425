package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/server"
	"github.com/svgic/svgic/internal/session"
	"github.com/svgic/svgic/internal/utility"
)

// Workload shape constants. They are part of the workload definition: a
// change here changes the pinned input digests (see selftest_test.go).
const (
	clients = 2 // closed-loop clients, one keep-alive connection each

	coldPool     = 2048 // distinct timed cold-solve groups, cycled; 8× the default result cache
	coldWarm     = 256  // warm-up groups, from their own seed stream
	multiEvery   = 4    // every 4th cold request holds several groups
	qualityFirst = 256  // cold-solve quality is averaged over the first 256 timed requests

	hotGroups = 32   // fits the default 256-entry result cache
	hotWarm   = 1536 // untimed warm-up requests cycling the hot groups

	fillSessions   = 32  // sessions recovered by every timed durable launch
	fillEvents     = 200 // events per filled session, all in the WAL tail (< 256)
	streams        = 16  // distinct timed (group, event stream) pairs
	warmStreams    = 4   // warm-up pairs, from their own seed stream
	streamEvents   = 320 // crosses the default snapshot cadence of 256 once
	eventBatch     = 8   // events per POST (one op)
	getEvery       = 5   // GET the session every 5 batches (and after the last)
	warmSessionsPC = 3   // warm-up sessions per client
	setups         = 3   // launches per run, each with its setup and a third of the timed phase
)

// Seed streams keep warm-up, timed, hot and fill inputs independent.
const (
	streamCold = iota + 1
	streamColdWarm
	streamHot
	streamFill
	streamSession
	streamSessionWarm
)

// subSeed derives the seed of input i of a stream (splitmix64 finalizer).
func subSeed(seed uint64, stream, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// group generates input i of a stream: one shopping group of a dataset
// profile with n 8–24, m 30–50, k 3–5 and λ = 0.5, or with multi set 3
// groups of 8 folded into one instance. The shape is a function of i
// alone, cycling through every n, m, k and profile, so each seed sends the
// same mix of shapes; the seed s draws the graph and the utilities.
func group(i int, s uint64, multi bool) (*core.Instance, error) {
	m := 30 + i*8%21
	k := 3 + i/3%3
	if multi {
		return datasets.MultiGroup(s, 3, 8, m, k, 0.5), nil
	}
	n := 8 + i*5%17
	return datasets.Generate(datasets.All()[i%3], n, m, k, 0.5, utility.PIERT, s)
}

// instanceOf decodes the instance a solve request carries.
func instanceOf(body []byte) (*core.Instance, error) {
	var sr server.SolveRequest
	if err := core.DecodeStrict(bytes.NewReader(body), &sr); err != nil {
		return nil, err
	}
	return core.InstanceFromJSON(&sr.InstanceJSON)
}

func solveBody(in *core.Instance) ([]byte, error) {
	return json.Marshal(server.SolveRequest{InstanceJSON: *core.InstanceAsJSON(in)})
}

// genSolves generates count pre-encoded solve request bodies of a stream on
// clients goroutines; input i depends only on (seed, stream, i). Instances
// are not kept: checks decode them again from the bodies, which keeps the
// cold pool's memory at the size of its bodies.
func genSolves(seed uint64, stream, count int, multi bool) ([][]byte, error) {
	out := make([][]byte, count)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < count && errs[w] == nil; i += clients {
				var in *core.Instance
				in, errs[w] = group(i, subSeed(seed, stream, i), multi && i%multiEvery == multiEvery-1)
				if errs[w] == nil {
					out[i], errs[w] = solveBody(in)
				}
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// stream is one live session's inputs: the create body and its event
// batches, pre-encoded.
type stream struct {
	in      *core.Instance
	create  []byte
	events  []session.Event
	batches [][]byte
}

func genStreams(seed uint64, streamID, count, events int) ([]stream, error) {
	out := make([]stream, count)
	for i := range out {
		s := subSeed(seed, streamID, i)
		in, err := group(i, s, false)
		if err != nil {
			return nil, err
		}
		create, err := json.Marshal(server.CreateSessionRequest{InstanceJSON: *core.InstanceAsJSON(in)})
		if err != nil {
			return nil, err
		}
		evs := session.GenerateEvents(in.NumUsers(), in.NumItems, events, s)
		st := stream{in: in, create: create, events: evs}
		for b := 0; b < len(evs); b += eventBatch {
			body, err := json.Marshal(server.SessionEventsRequest{Events: evs[b:min(b+eventBatch, len(evs))]})
			if err != nil {
				return nil, err
			}
			st.batches = append(st.batches, body)
		}
		out[i] = st
	}
	return out, nil
}

// inputs is everything one workload sends, generated before any clock.
type inputs struct {
	warm  [][]byte // cold-solve warm-up bodies
	timed [][]byte // cold-solve timed pool, or the hot-solve groups

	fill, sessions, warmSessions []stream // durable-session

	digest string // SHA-256 over every request body, in generation order
}

func generate(name string, seed uint64) (*inputs, error) {
	var in inputs
	var err error
	switch name {
	case "cold-solve":
		if in.warm, err = genSolves(seed, streamColdWarm, coldWarm, true); err != nil {
			return nil, err
		}
		in.timed, err = genSolves(seed, streamCold, coldPool, true)
	case "hot-solve":
		in.timed, err = genSolves(seed, streamHot, hotGroups, true)
	case "durable-session":
		if in.fill, err = genStreams(seed, streamFill, fillSessions, fillEvents); err != nil {
			return nil, err
		}
		if in.warmSessions, err = genStreams(seed, streamSessionWarm, warmStreams, streamEvents); err != nil {
			return nil, err
		}
		in.sessions, err = genStreams(seed, streamSession, streams, streamEvents)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, b := range append(in.warm, in.timed...) {
		h.Write(b)
	}
	for _, group := range [][]stream{in.fill, in.warmSessions, in.sessions} {
		for _, st := range group {
			h.Write(st.create)
			for _, b := range st.batches {
				h.Write(b)
			}
		}
	}
	in.digest = hex.EncodeToString(h.Sum(nil))
	return &in, nil
}

var workloadNames = []string{"cold-solve", "hot-solve", "durable-session"}

// childFlags are the svgicd flags of a workload beyond -addr; everything
// else stays at the shipped defaults.
func childFlags(name, dataDir string) []string {
	if name == "durable-session" {
		return []string{"-data-dir", dataDir, "-fsync", "always"}
	}
	return nil
}
