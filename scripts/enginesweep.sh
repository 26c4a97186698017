#!/usr/bin/env bash
# Engine sweep: run every matching engine (bfs and bfs-ss) through
# cmd/bench -exp enginesweep on every Table II stand-in and on the g500, er
# and ssca RMAT classes, at scales 10 and 12 and at 4 and 16 ranks, and
# print each cell's table followed by the sweep's total run time. Every
# cell König-certifies every engine's matching (the sweep panics on a
# non-maximum one).
#
#   make enginesweep            # or: scripts/enginesweep.sh
#
# It takes minutes, not seconds, so CI does not run it; make bench-smoke
# runs one small cell instead. One cell runs by hand with
# go run ./cmd/bench -exp enginesweep -matrix M -scale S -procs P.
# EXPERIMENTS.md records its output.
set -euo pipefail
cd "$(dirname "$0")/.."

matrices="amazon-2008 cage15 delaunay_n24 europe_osm Freescale1 hugetrace-00020
kkt_power ljournal-2008 nlpkkt200 rajat31 road_usa wb-edu wikipedia-20070206
g500 er ssca"

# Fall back to a repo-local scratch dir when /tmp is unavailable.
work="$(mktemp -d 2>/dev/null || mktemp -d .enginesweep.XXXXXX)"
trap 'rm -rf "$work"' EXIT
go build -o "$work/" ./cmd/bench

start=$SECONDS
for scale in 10 12; do
  for p in 4 16; do
    for m in $matrices; do
      "$work/bench" -exp enginesweep -matrix "$m" -scale "$scale" -procs "$p"
    done
  done
done
echo "enginesweep: scales {10 12} x procs {4 16} took $((SECONDS - start)) s"
