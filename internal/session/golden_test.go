package session

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"github.com/svgic/svgic/internal/core"
	"github.com/svgic/svgic/internal/datasets"
	"github.com/svgic/svgic/internal/utility"
)

// goldenStream is one pinned event stream: a dataset-profile group in the
// shape of the benchmark's live sessions, started from the personalized
// configuration, with 320 generated churn events.
type goldenStream struct {
	i   int    // shape index: profile, n, m and k cycle with it
	cap int    // SVGIC-ST size cap; 0 = none
	sd  uint64 // graph, utility and event seed
}

// hashStream applies the stream's events and folds into h, after every
// event, the session value's bits, the event's gain bits and every
// assignment row, then the final instance fingerprint.
func hashStream(t *testing.T, h hash.Hash, gs goldenStream) {
	t.Helper()
	m := 30 + gs.i*8%21
	k := 3 + gs.i/3%3
	n := 8 + gs.i*5%17
	in, err := datasets.Generate(datasets.All()[gs.i%3], n, m, k, 0.5, utility.PIERT, gs.sd)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := core.NewDynamicSession(in, core.PersonalizedConfig(in), gs.cap)
	if err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for j, ev := range GenerateEvents(n, m, 320, gs.sd) {
		res, err := Apply(ds, ev)
		if err != nil {
			t.Fatalf("stream %d event %d (%s): %v", gs.i, j, ev.Type, err)
		}
		put(math.Float64bits(ds.Value()))
		put(math.Float64bits(res.Gain))
		for u, row := range ds.Config().Assign {
			for s, it := range row {
				if it == core.Unassigned {
					t.Fatalf("stream %d event %d: user %d slot %d unassigned", gs.i, j, u, s)
				}
				put(uint64(it))
			}
		}
	}
	put(core.Fingerprint(ds.Instance()))
}

// TestEventStreamGolden pins the event path's bits: every event's value,
// gain and configuration, and each stream's final fingerprint, over
// uncapped and capped streams shaped like the benchmark's live sessions. A
// change that reorders a float summation or a tie-break anywhere on the
// join, leave, updatePreference or rebalance path changes a digest. The
// capped streams' caps are loose enough that every joiner finds a complete
// row, so they pin the blocked-unit logic without running out of capacity.
func TestEventStreamGolden(t *testing.T) {
	for _, set := range []struct {
		name    string
		streams []goldenStream
		want    string
	}{
		{
			name: "uncapped",
			streams: []goldenStream{
				{i: 0, sd: 101}, {i: 1, sd: 102}, {i: 2, sd: 103}, {i: 3, sd: 104},
				{i: 4, sd: 105}, {i: 5, sd: 106}, {i: 6, sd: 107}, {i: 7, sd: 108},
			},
			want: "e9dae0eae949aa169279cf6bef2b1d8392b315240edee53d9c79eaa90ebb9358",
		},
		{
			name: "capped",
			streams: []goldenStream{
				{i: 0, cap: 6, sd: 201}, {i: 4, cap: 7, sd: 202},
				{i: 5, cap: 8, sd: 203}, {i: 8, cap: 6, sd: 204},
			},
			want: "b3d3476417d1a140a6166b7ff99b7cd469b730dd3aad07fe0faecb4a5db76f16",
		},
	} {
		h := sha256.New()
		for _, gs := range set.streams {
			hashStream(t, h, gs)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != set.want {
			t.Errorf("%s streams: digest %s, pinned %s", set.name, got, set.want)
		}
	}
}
