#!/usr/bin/env bash
# benchmark/run.sh — build crowdbench once, run N repetitions of every
# workload on two sides in alternating order, and compare the sides.
#
#   benchmark/run.sh [N] [PARENT_CHECKOUT]
#
# Without PARENT_CHECKOUT both sides are this checkout: the two sets of
# runs must agree within the benchmark's own bounds (no "worse" row), and
# an "unresolved" row means the spread on this machine is wider than the
# metric's bound. With PARENT_CHECKOUT (another checkout of the repo that
# has the same benchmark/ directory) side a is the parent and side b is
# this checkout: the ten-alternating-pairs protocol is
#
#   benchmark/run.sh 10 /path/to/parent
#
# Pair i runs seed i on both sides; odd pairs run a first, even pairs b
# first. Results land in benchmark/out/runs/. The exit status is that of
# -compare: non-zero when any named metric is worse than its bound allows.
set -euo pipefail

n=${1:-5}
here=$(cd "$(dirname "$0")" && pwd)
parent=${2:+$(cd "$2/benchmark" && pwd)}
parent=${parent:-$here}
out="$here/out"
runs="$out/runs"
rm -rf "$runs"
mkdir -p "$runs"

go build -C "$parent" -o "$out/crowdbench_a" .
go build -C "$here" -o "$out/crowdbench_b" .
cd "$here" # the program reads ../BENCHMARK.json

run_side() { # side seed
  "$out/crowdbench_$1" -seed "$2" -out "$runs/$1.$2" >"$runs/$1.$2.log"
}

a_files=()
b_files=()
for i in $(seq 1 "$n"); do
  if ((i % 2)); then
    run_side a "$i"
    run_side b "$i"
  else
    run_side b "$i"
    run_side a "$i"
  fi
  a_files+=("$runs/a.$i/result.json")
  b_files+=("$runs/b.$i/result.json")
  echo "pair $i/$n done" >&2
done

join() {
  local IFS=,
  echo "$*"
}
"$out/crowdbench_b" -compare "$(join "${a_files[@]}")" "$(join "${b_files[@]}")"
