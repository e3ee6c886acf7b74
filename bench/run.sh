#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed through (see bench/README.md). Run it from the
# repository root:
#
#   bash bench/run.sh --workload perm-cold --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache (so rebuilds after the first are
# quick) and work directory, the binary, and the run's scratch stores.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd bench && go build -o "$out/meshbench" .)
exec "$out/meshbench" "$@"
