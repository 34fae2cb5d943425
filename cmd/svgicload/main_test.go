package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadInvocations: every malformed command line fails before
// svgicload launches anything. The binary path does not exist, so an
// attempt to launch would surface as a different ("starting svgicd") error.
func TestRunRejectsBadInvocations(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "no-such-svgicd")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no clients", []string{"-conc", "0", bin}, "-conc 0"},
		{"no requests", []string{"-requests", "0", bin}, "-requests 0"},
		{"negative requests", []string{"-requests", "-3", bin}, "-requests -3"},
		{"no sessions", []string{"-dynamic", "-sessions", "0", bin}, "-sessions 0"},
		{"no binary", []string{"-requests", "5"}, "no svgicd binary"},
		{"unknown algo", []string{"-algo", "avgd,nope", bin}, `unknown algorithm "nope"`},
		{"unknown svgicd flag", []string{bin, "-workers", "2", "-loadgen"}, "flag provided but not defined: -loadgen"},
		{"bad svgicd algo", []string{bin, "-algo", "nope"}, `unknown algorithm "nope"`},
		{"crash without dynamic", []string{"-crash", bin, "-data-dir", t.TempDir()}, "-crash needs -dynamic"},
		{"crash without data dir", []string{"-dynamic", "-crash", bin}, "-data-dir"},
		{"crash with drift repair", []string{"-dynamic", "-crash", bin, "-data-dir", t.TempDir(), "-repair-interval", "50ms"}, "-repair-interval"},
		{"crash with algo", []string{"-dynamic", "-crash", "-algo", "per", bin, "-data-dir", t.TempDir()}, "svgicd -algo"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
