#!/usr/bin/env bash
# Builds raidbench from the checkout's sources and runs it with the given
# flags, e.g.
#
#   bash bench/run.sh --workload plain-scrub --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binary, scratch files, results) stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
# The go command keeps its env file and telemetry counters under the user
# config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/bench" && go build -o "$out/bin/raidbench" ./raidbench)
exec "$out/bin/raidbench" -out "$out/raidbench" "$@"
