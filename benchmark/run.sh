#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload rmat-bfs --seed 17 --seconds 15 --trace 0
#
# Every build product (binary, Go build cache, Go's own config files) stays
# under .bench_build/ in the current directory. The benchmark module points
# at the repository root through a replace directive, so a directory that
# holds only the benchmark fails to build and this script exits non-zero.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd benchmark && go build -buildvcs=false -o "$out/mcmbench" .)
exec "$out/mcmbench" "$@"
