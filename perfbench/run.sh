#!/usr/bin/env bash
# Builds the benchmark into .bench_build on first use, then runs one
# workload from the checkout root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr; stdout ends with the result line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target perfbench -j 4 >&2

commit=unknown
if [[ -d "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)"
fi
trace=0
prev=""
for arg in "$@"; do
  if [[ "$prev" == "--trace" ]]; then trace="$arg"; fi
  prev="$arg"
done
spans=()
if [[ "$trace" == "1" ]]; then
  mkdir -p "$build/spans"
  spans=(--spans "$build/spans/last.jsonl")
fi

# Fusion, SIMD and the memory plan are configured through the environment
# defaults the executor reads (NOTES.md explains why not ExecutorOptions).
cd "$root"
export GF_FUSE=1 GF_SIMD=1 GF_MEMORY_PLAN=1
exec "$build/perfbench" --benchmark "$root/BENCHMARK.json" --commit "$commit" "${spans[@]}" "$@"
