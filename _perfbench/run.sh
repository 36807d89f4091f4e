#!/usr/bin/env bash
# Builds the benchmark harness from source and runs one workload.
#
#   bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build product, cache, journal and
# trace file lands under .bench_build/perfbench/ so the run reads and
# writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOWORK=off
export GOFLAGS=
# The binary is built with -trimpath, so it cannot find the toolchain's
# standard-library sources on its own; the lint workload type-checks
# against them.
GOROOT="$(go env GOROOT)"
export GOROOT

(cd "$here" && go build -trimpath -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" -out "$build" "$@"
