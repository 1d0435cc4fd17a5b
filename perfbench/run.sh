#!/usr/bin/env bash
# Builds the benchmark from the sources of the current checkout and runs it
# with the given arguments:
#
#   bash perfbench/run.sh --workload fit --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the binary and
# all run state live under .bench_build/perfbench/ there; nothing is read
# from or written to the network or the user's home directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"

# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$src" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
