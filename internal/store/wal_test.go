package store

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

func frames(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = appendFrame(out, p)
	}
	return out
}

// TestFrameRoundTrip: what goes in comes out, in order, with no corruption
// report.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte(`{"kind":"events"}`),
		[]byte("x"),
		bytes.Repeat([]byte("abc123"), 10_000),
	}
	got, torn := readFrames(frames(payloads...))
	if torn != nil {
		t.Fatalf("round trip reported corruption: %v", torn)
	}
	if len(got) != len(payloads) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("frame %d: got %q, want %q", i, got[i], payloads[i])
		}
	}
	if got, torn := readFrames(nil); torn != nil || len(got) != 0 {
		t.Fatalf("empty log decoded as %d frames, torn=%v", len(got), torn)
	}
}

// TestTornTailEveryTruncation is the satellite's core requirement: for a
// log truncated at EVERY byte offset, the reader returns exactly the frames
// that fit intact before the cut, reports the tear for any trailing
// partial, and never errors or panics.
func TestTornTailEveryTruncation(t *testing.T) {
	payloads := [][]byte{
		[]byte(`{"a":1}`),
		[]byte(`{"bb":"2222"}`),
		[]byte(`{"ccc":[3,3,3]}`),
	}
	full := frames(payloads...)
	// boundaries[i] = end offset of frame i.
	boundaries := make([]int, len(payloads))
	off := 0
	for i, p := range payloads {
		off += frameHeaderSize + len(p)
		boundaries[i] = off
	}
	for cut := 0; cut <= len(full); cut++ {
		wantFrames := 0
		for _, b := range boundaries {
			if cut >= b {
				wantFrames++
			}
		}
		atBoundary := cut == 0
		for _, b := range boundaries {
			if cut == b {
				atBoundary = true
			}
		}
		got, torn := readFrames(full[:cut])
		if len(got) != wantFrames {
			t.Fatalf("cut at %d: decoded %d frames, want %d", cut, len(got), wantFrames)
		}
		if atBoundary && torn != nil {
			t.Fatalf("cut at clean boundary %d reported corruption: %v", cut, torn)
		}
		if !atBoundary && torn == nil {
			t.Fatalf("cut mid-frame at %d reported no corruption", cut)
		}
		for i := 0; i < wantFrames; i++ {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("cut at %d: frame %d corrupted", cut, i)
			}
		}
	}
}

// TestCorruptionFuzz flips, zeroes and splices random bytes all over a
// multi-frame log: the reader must never panic, never return a frame that
// was not written intact, and — when the corruption lands strictly after a
// frame boundary — still return every frame before the damage.
func TestCorruptionFuzz(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 13))
	var payloads [][]byte
	for i := 0; i < 8; i++ {
		p := make([]byte, 1+rng.IntN(200))
		for j := range p {
			p[j] = byte(rng.Uint32())
		}
		payloads = append(payloads, p)
	}
	full := frames(payloads...)
	boundaries := []int{0}
	off := 0
	for _, p := range payloads {
		off += frameHeaderSize + len(p)
		boundaries = append(boundaries, off)
	}
	intactBefore := func(pos int) int {
		n := 0
		for _, b := range boundaries[1:] {
			if b <= pos {
				n++
			}
		}
		return n
	}

	for trial := 0; trial < 2000; trial++ {
		data := append([]byte(nil), full...)
		pos := rng.IntN(len(data))
		switch rng.IntN(3) {
		case 0: // flip one byte
			data[pos] ^= 1 << rng.IntN(8)
		case 1: // zero a random run
			run := 1 + rng.IntN(32)
			for i := pos; i < len(data) && i < pos+run; i++ {
				data[i] = 0
			}
		case 2: // truncate and append garbage
			data = data[:pos]
			junk := make([]byte, rng.IntN(16))
			for i := range junk {
				junk[i] = byte(rng.Uint32())
			}
			data = append(data, junk...)
		}
		got, _ := readFrames(data)
		// Frames wholly before the first damaged byte must all decode.
		if want := intactBefore(pos); len(got) < want {
			t.Fatalf("trial %d: corruption at %d lost %d intact frames (decoded %d, want ≥ %d)",
				trial, pos, want-len(got), len(got), want)
		}
		// Every decoded frame must be byte-identical to a written one at its
		// position (a flipped byte may leave earlier frames plus, very
		// rarely, CRC-colliding garbage; positional equality catches any
		// frame the reader should not have trusted).
		for i, g := range got {
			if i < len(payloads) && !bytes.Equal(g, payloads[i]) {
				// CRC-32C would need a 1-in-4-billion collision to let a
				// mutated payload through; a mismatch here is a reader bug.
				t.Fatalf("trial %d: corruption at %d produced altered frame %d", trial, pos, i)
			}
		}
	}
}

// TestFrameLengthBounds: absurd and zero length fields are tears, not
// allocations or panics.
func TestFrameLengthBounds(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if got, torn := readFrames(huge); torn == nil || len(got) != 0 {
		t.Fatalf("absurd length decoded as %d frames, torn=%v", len(got), torn)
	}
	zeros := make([]byte, 64)
	if got, torn := readFrames(zeros); torn == nil || len(got) != 0 {
		t.Fatalf("zero-fill decoded as %d frames, torn=%v", len(got), torn)
	}
	if torn := func() *Corruption { _, torn := readFrames(zeros); return torn }(); torn.Offset != 0 {
		t.Fatalf("zero-fill tear at offset %d, want 0", torn.Offset)
	}
}

// TestCorruptionString: the report pinpoints the tear for operators.
func TestCorruptionString(t *testing.T) {
	data := frames([]byte("ok"))
	data = append(data, 1, 2, 3) // partial header
	_, torn := readFrames(data)
	if torn == nil {
		t.Fatal("no corruption reported")
	}
	want := fmt.Sprintf("torn frame at offset %d", frameHeaderSize+2)
	if got := torn.String(); len(got) == 0 || !bytes.Contains([]byte(got), []byte(want)) {
		t.Fatalf("corruption report %q does not pinpoint offset (%s)", got, want)
	}
}

// FuzzReadFrames feeds arbitrary bytes to the WAL frame reader, which every
// log and snapshot read at recovery goes through. It must not panic, and
// what it returns must account for the input exactly: re-framing the
// decoded payloads reproduces a prefix of the input, that prefix is the
// whole input when no tear is reported, and a reported tear sits at the
// prefix's end. Seeds in testdata/fuzz/ cover an intact log and each tear
// the reader distinguishes.
func FuzzReadFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, torn := readFrames(data)
		prefix := frames(payloads...)
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("%d decoded frames re-frame to %d bytes that do not prefix the input", len(payloads), len(prefix))
		}
		switch {
		case torn == nil && len(prefix) != len(data):
			t.Fatalf("no tear reported, but the frames cover %d of %d bytes", len(prefix), len(data))
		case torn != nil && torn.Offset != int64(len(prefix)):
			t.Fatalf("tear at offset %d, but the intact frames end at %d (%s)", torn.Offset, len(prefix), torn.Reason)
		}
	})
}
