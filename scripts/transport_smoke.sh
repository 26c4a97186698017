#!/usr/bin/env bash
# Transport smoke test: run one solve as four OS processes over loopback
# TCP (mcm coordinating, three mcmrank workers) and require the matching
# each process writes to be byte-identical to the in-process oracle's.
#
#   make transport-smoke          # or: scripts/transport_smoke.sh
#   SMOKE_SCALE=11 scripts/transport_smoke.sh
#
# The CI test-transport job runs this script; docs/TRANSPORT.md explains
# why bit-identical output across backends is the expected invariant, not
# a lucky coincidence.
set -euo pipefail
cd "$(dirname "$0")/.."

scale="${SMOKE_SCALE:-9}"
procs=4
addr="127.0.0.1:${SMOKE_PORT:-$((9400 + RANDOM % 512))}"
# Fall back to a repo-local scratch dir when /tmp is unavailable.
work="$(mktemp -d 2>/dev/null || mktemp -d .transport-smoke.XXXXXX)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/" ./cmd/mcm ./cmd/mcmrank ./cmd/tracelint

graph=(-rmat g500 -scale "$scale" -seed 1 -procs "$procs")

# The in-process oracle run also checks its cardinality against serial
# Hopcroft–Karp (-serial hk exits non-zero on a disagreement).
"$work/mcm" "${graph[@]}" -serial hk -out "$work/oracle.txt" >"$work/oracle.log"
grep -q "agrees with MCM-DIST" "$work/oracle.log" || {
  echo "transport-smoke: -serial hk did not report agreement:" >&2
  cat "$work/oracle.log" >&2; exit 1; }

"$work/mcm" "${graph[@]}" -transport tcp -addr "$addr" \
  -out "$work/rank0.txt" >"$work/coord.log" 2>&1 &
coord=$!
"$work/mcmrank" -addr "$addr" -rank 1 -quiet &
"$work/mcmrank" -addr "$addr" -rank 2 -quiet &
"$work/mcmrank" -addr "$addr" -rank 3 -quiet -out "$work/rank3.txt"
if ! wait "$coord"; then
  echo "transport-smoke: coordinator failed:" >&2
  cat "$work/coord.log" >&2
  exit 1
fi
wait

cmp "$work/oracle.txt" "$work/rank0.txt"
cmp "$work/oracle.txt" "$work/rank3.txt"
echo "transport-smoke: 4-process tcp matching is byte-identical to the in-process oracle (scale $scale, $addr)"

# Second pass: same solve with delta-varint wire compression and the
# adaptive direction heuristic on. The spec ships both knobs to the workers
# through the rendezvous config blob; the output must still be byte-identical
# to the uncompressed oracle (compression is a transport encoding, direction
# is bit-identical under MinParent — docs/KERNELS.md).
addr2="127.0.0.1:${SMOKE_PORT2:-$((9912 + RANDOM % 88))}"
"$work/mcm" "${graph[@]}" -transport tcp -addr "$addr2" \
  -compress -direction auto \
  -out "$work/rank0c.txt" >"$work/coordc.log" 2>&1 &
coord=$!
"$work/mcmrank" -addr "$addr2" -rank 1 -quiet &
"$work/mcmrank" -addr "$addr2" -rank 2 -quiet &
"$work/mcmrank" -addr "$addr2" -rank 3 -quiet -out "$work/rank3c.txt"
if ! wait "$coord"; then
  echo "transport-smoke: compressed coordinator failed:" >&2
  cat "$work/coordc.log" >&2
  exit 1
fi
wait

cmp "$work/oracle.txt" "$work/rank0c.txt"
cmp "$work/oracle.txt" "$work/rank3c.txt"
echo "transport-smoke: compressed+auto 4-process matching is byte-identical to the oracle (scale $scale, $addr2)"

# Third pass: a non-default engine, bfs-ss. The engine name ships to the
# workers in the job spec, every process resolves it identically, and the
# 4-process result must be byte-identical to bfs-ss's own in-process oracle
# (the single-source search finds a different maximum matching than bfs,
# so it gets its own oracle file rather than comparing against oracle.txt).
addr3="127.0.0.1:${SMOKE_PORT3:-$((9700 + RANDOM % 200))}"
"$work/mcm" "${graph[@]}" -engine bfs-ss -out "$work/oracle_ss.txt" >/dev/null

"$work/mcm" "${graph[@]}" -engine bfs-ss -transport tcp -addr "$addr3" \
  -out "$work/rank0a.txt" >"$work/coorda.log" 2>&1 &
coord=$!
"$work/mcmrank" -addr "$addr3" -rank 1 -quiet &
"$work/mcmrank" -addr "$addr3" -rank 2 -quiet &
"$work/mcmrank" -addr "$addr3" -rank 3 -quiet -out "$work/rank3a.txt"
if ! wait "$coord"; then
  echo "transport-smoke: bfs-ss coordinator failed:" >&2
  cat "$work/coorda.log" >&2
  exit 1
fi
wait

cmp "$work/oracle_ss.txt" "$work/rank0a.txt"
cmp "$work/oracle_ss.txt" "$work/rank3a.txt"
echo "transport-smoke: bfs-ss 4-process matching is byte-identical to its in-process oracle (scale $scale, $addr3)"

# Fourth pass: whole-world observability. The coordinator requests spans
# and the time-series; the workers enable the same planes from the job
# spec, ship their observations back at solve end, and the coordinator
# writes ONE merged trace covering all four ranks. tracelint then enforces
# the world-level invariants: a compute/comm track pair per rank, per-track
# timestamp monotonicity after clock-offset alignment, and paired flow
# chains. The matching must still be byte-identical — tracing is passive.
addr4="127.0.0.1:${SMOKE_PORT4:-$((9530 + RANDOM % 170))}"
"$work/mcm" "${graph[@]}" -transport tcp -addr "$addr4" \
  -trace-out "$work/world.json" -timeseries "$work/world.csv" \
  -out "$work/rank0t.txt" >"$work/coordt.log" 2>&1 &
coord=$!
"$work/mcmrank" -addr "$addr4" -rank 1 -quiet &
"$work/mcmrank" -addr "$addr4" -rank 2 -quiet &
"$work/mcmrank" -addr "$addr4" -rank 3 -quiet -out "$work/rank3t.txt"
if ! wait "$coord"; then
  echo "transport-smoke: traced coordinator failed:" >&2
  cat "$work/coordt.log" >&2
  exit 1
fi
wait

cmp "$work/oracle.txt" "$work/rank0t.txt"
cmp "$work/oracle.txt" "$work/rank3t.txt"
"$work/tracelint" "$work/world.json" "$work/world.csv"
# The merged time-series carries rows from every rank, and the merged trace
# carries a worker's heartbeat RTT probe: an hb.rtt to 0 instant on tid 2,
# rank 1's compute track, which only the OBS shipping can have put there.
for r in 0 1 2 3; do
  grep -q "^$r," "$work/world.csv" || { echo "transport-smoke: no series rows for rank $r" >&2; exit 1; }
done
grep -q '"tid":2,[^}]*"name":"hb.rtt to 0"' "$work/world.json" || {
  echo "transport-smoke: rank 1's hb.rtt instants missing from the merged trace" >&2; exit 1; }
echo "transport-smoke: traced 4-process solve produced one tracelint-clean world trace (scale $scale, $addr4)"
