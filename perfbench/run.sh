#!/usr/bin/env bash
# Builds svgicd and the perfbench runner from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 21 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under the build directory ($CARGO_TARGET_DIR if set, else .bench_build),
# including the Go build cache, so a second run only relinks.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/svgicd" ]]; then
	echo "perfbench: run from the svgic repository root (no go.mod or cmd/svgicd here)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/work" "$build/config"

# The go command keeps its cache, temp files and telemetry counters (under
# the user config dir) inside the build directory too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export CGO_ENABLED=0

go build -o "$build/bin/svgicd" ./cmd/svgicd
(cd perfbench && go build -o "$build/bin/perfbench" .)

# Flags are passed through; the runner accepts both -name and --name.
exec "$build/bin/perfbench" -svgicd "$build/bin/svgicd" -work "$build/work" "$@"
