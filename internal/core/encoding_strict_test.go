package core

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

const strictExample = `{
  "users": 2, "items": 3, "slots": 2, "lambda": 0.5,
  "preferences": [[1, 0.5, 0], [0.9, 0.1, 0.2]],
  "social": [{"from": 0, "to": 1, "tau": [0.4, 0, 0]}]
}`

func TestUnmarshalInstanceStrictAcceptsCanonicalSchema(t *testing.T) {
	in, err := UnmarshalInstanceStrict([]byte(strictExample))
	if err != nil {
		t.Fatal(err)
	}
	if in.NumUsers() != 2 || in.NumItems != 3 || in.K != 2 {
		t.Fatalf("wrong shape: %d users, %d items, %d slots", in.NumUsers(), in.NumItems, in.K)
	}
	// Round-trip: MarshalInstance emits only canonical fields, so its output
	// must always strict-decode.
	data, err := MarshalInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalInstanceStrict(data); err != nil {
		t.Fatalf("canonical marshal output rejected by strict decode: %v", err)
	}
}

// TestUnmarshalInstanceStrictRejectsUnknownFields is the regression test for
// the silent-typo bug: a tolerant json.Unmarshal drops "preference" (missing
// the final s) and the solver runs on a zero-utility instance.
func TestUnmarshalInstanceStrictRejectsUnknownFields(t *testing.T) {
	typo := `{
	  "users": 2, "items": 3, "slots": 2, "lambda": 0.5,
	  "preference": [[1, 0.5, 0], [0.9, 0.1, 0.2]]
	}`
	_, err := UnmarshalInstanceStrict([]byte(typo))
	if err == nil {
		t.Fatal("misspelled \"preference\" accepted by strict decode")
	}
	if !strings.Contains(err.Error(), "preference") {
		t.Errorf("error %q does not name the unknown field", err)
	}

	// A misspelled "social" is nastier: the tolerant decode accepts it and
	// silently zeroes every τ; the strict decode refuses.
	socialTypo := `{
	  "users": 2, "items": 3, "slots": 2, "lambda": 0.5,
	  "preferences": [[1, 0.5, 0], [0.9, 0.1, 0.2]],
	  "socials": [{"from": 0, "to": 1, "tau": [0.4, 0, 0]}]
	}`
	if in, terr := UnmarshalInstance([]byte(socialTypo)); terr != nil {
		t.Fatalf("tolerant decode unexpectedly failed: %v", terr)
	} else if in.Tau(0, 1, 0) != 0 {
		t.Fatal("tolerant decode kept τ — test premise broken")
	}
	if _, err := UnmarshalInstanceStrict([]byte(socialTypo)); err == nil {
		t.Fatal("misspelled \"social\" accepted by strict decode")
	}
}

func TestUnmarshalInstanceStrictRejectsTrailingGarbage(t *testing.T) {
	if _, err := UnmarshalInstanceStrict([]byte(strictExample + `{"users": 1}`)); err == nil {
		t.Fatal("trailing second document accepted")
	}
	if _, err := UnmarshalInstanceStrict([]byte(strictExample + " \n\t ")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}

func TestDecodeStrictArbitraryWrapper(t *testing.T) {
	type wrapper struct {
		InstanceJSON
		SizeCap int `json:"sizeCap"`
	}
	var w wrapper
	if err := DecodeStrict(strings.NewReader(`{"users":1,"items":2,"slots":1,"preferences":[[1,0]],"sizeCap":3}`), &w); err != nil {
		t.Fatal(err)
	}
	if w.SizeCap != 3 || w.Users != 1 {
		t.Fatalf("wrapper mis-decoded: %+v", w)
	}
	if err := DecodeStrict(strings.NewReader(`{"users":1,"sizecapp":3}`), &w); err == nil {
		t.Fatal("unknown wrapper field accepted")
	}
}

// TestInstanceFromJSONChecksShapeFirst: the declared sizes are checked
// against the preference matrix before users × items floats are allocated,
// so a tiny body declaring a huge instance is refused for a few bytes, and
// an edge naming an undeclared user is refused rather than dropped.
func TestInstanceFromJSONChecksShapeFirst(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"huge users", `{"users":1000000,"items":2,"slots":1,"lambda":0.5,"preferences":[]}`, "preferences rows = 0"},
		{"huge items", `{"users":1,"items":4000000,"slots":1,"lambda":0.5,"preferences":[[]]}`, "preferences[0] has 0 items"},
		{"edge past users", `{"users":2,"items":2,"slots":1,"lambda":0.5,"edges":[{"from":0,"to":2}],"preferences":[[1,0],[0,1]]}`, "outside users"},
		{"negative social endpoint", `{"users":2,"items":2,"slots":1,"lambda":0.5,"social":[{"from":-1,"to":1,"tau":[0.5,0]}],"preferences":[[1,0],[0,1]]}`, "outside users"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := UnmarshalInstanceStrict([]byte(tc.body))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("refusing a %d-byte body allocated %d bytes", len(tc.body), alloc)
			}
		})
	}
}

// FuzzUnmarshalInstanceStrict feeds arbitrary bytes to the strict instance
// decoder, which every instance a client sends goes through. It must not
// panic, and an instance it accepts must be valid, have the declared number
// of users, and survive MarshalInstance → UnmarshalInstanceStrict with an
// equal Fingerprint. Seeds live in testdata/fuzz/.
func FuzzUnmarshalInstanceStrict(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := UnmarshalInstanceStrict(data)
		if err != nil {
			return
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("accepted an invalid instance: %v", err)
		}
		var ij InstanceJSON
		if err := json.Unmarshal(data, &ij); err != nil {
			t.Fatal(err)
		}
		if in.NumUsers() != ij.Users {
			t.Fatalf("%d users, declared %d", in.NumUsers(), ij.Users)
		}
		out, err := MarshalInstance(in)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalInstanceStrict(out)
		if err != nil {
			t.Fatalf("marshaled instance rejected: %v\n%s", err, out)
		}
		if Fingerprint(back) != Fingerprint(in) {
			t.Fatalf("round trip changed the instance:\n%s", out)
		}
	})
}
