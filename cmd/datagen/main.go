// Command datagen emits synthetic SVGIC instances in the JSON interchange
// format consumed by cmd/svgic and svgic.UnmarshalInstance, generated from
// the built-in dataset profiles.
//
// Usage:
//
//	datagen -dataset yelp -n 50 -m 300 -k 10 -lambda 0.5 -seed 7 > store.json
//	datagen -dataset timik -n 25 -m 40 -k 5 -o timik25.json
//
// With -events N it instead emits a replayable live-session trace: the
// instance plus N join/leave/updatePreference/rebalance events valid against
// it, in the schema of svgicd's /v1/sessions/{id}/events endpoint. Replay
// with `svgicload -dynamic -trace trace.json path/to/svgicd` (what `make
// session-smoke` does) or offline via the session package.
//
// Generation is fully seeded: -seed drives the instance and, unless
// -event-seed overrides it, the event stream too (derived as seed+1), so
// the same flags always emit a byte-identical trace — CI replays are
// reproducible run to run, and a crash-recovery verification can regenerate
// the exact workload it served:
//
//	datagen -dataset timik -n 12 -m 30 -k 3 -seed 5 -event-seed 6 -events 50 -o trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	svgic "github.com/svgic/svgic"
	"github.com/svgic/svgic/internal/session"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run() error {
	dataset := flag.String("dataset", "timik", "dataset profile: timik|epinions|yelp")
	n := flag.Int("n", 25, "number of shoppers")
	m := flag.Int("m", 100, "number of items")
	k := flag.Int("k", 5, "number of display slots")
	lambda := flag.Float64("lambda", 0.5, "social weight λ in [0,1]")
	seed := flag.Uint64("seed", 1, "generation seed")
	events := flag.Int("events", 0, "emit a live-session trace with this many events (0 = plain instance)")
	eventSeed := flag.Uint64("event-seed", 0, "event-stream seed (0 = derive from -seed)")
	sizeCap := flag.Int("size-cap", 0, "trace: SVGIC-ST subgroup size cap M (0 = uncapped)")
	out := flag.String("o", "-", "output file ('-' = stdout)")
	flag.Parse()

	in, err := svgic.GenerateDataset(svgic.DatasetName(*dataset), *n, *m, *k, *lambda, *seed)
	if err != nil {
		return err
	}
	var data []byte
	if *events > 0 {
		es := *eventSeed
		if es == 0 {
			es = *seed + 1
		}
		data, err = json.MarshalIndent(session.NewTrace(in, *sizeCap, *events, es), "", "  ")
	} else {
		data, err = svgic.MarshalInstance(in)
	}
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}
