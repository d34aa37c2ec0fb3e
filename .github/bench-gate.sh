#!/usr/bin/env bash
# The one performance gate: PAIRS alternating runs of every BENCHMARK.json
# workload on a clone at BASE_REV and on this checkout, judged by
# `benchmark compare` (worse or an incorrect run fails; unresolved does not).
#   bash .github/bench-gate.sh BASE_REV [PAIRS]    # CI: 5; backing a claim: 10
set -euo pipefail
head=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$head"
rev=$(git rev-parse --verify "${1:?usage: bench-gate.sh BASE_REV [PAIRS]}^{commit}")
pairs=${2:-10}
build=$head/.bench_build
base=$build/base
rm -rf "$base" "$build"/{base,head}.jsonl
trap 'rm -rf "$base"' EXIT
# A clone, not a copy: the base's results are stamped with its own commit.
git clone -q --shared --no-checkout "$head" "$base"
git -C "$base" checkout -q --detach "$rev"
workloads=$(python3 -c 'import json
print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')
for pair in $(seq 1 "$pairs"); do
  order="base head"
  if ((pair % 2 == 0)); then order="head base"; fi
  for workload in $workloads; do
    for side in $order; do
      echo "pair $pair/$pairs: $workload on $side" >&2
      bash "${!side}/benchmark/run.sh" --workload "$workload" --seed "$pair" \
        --seconds 10 --trace 0 -out "$build/$side.jsonl" >/dev/null
    done
  done
done
"$build/benchmark" compare "$build/base.jsonl" "$build/head.jsonl"
