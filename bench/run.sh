#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash bench/run.sh --workload optimize --seed 42 --seconds 10 --trace 0
#
# The build cache, the binary and everything the run writes stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
