#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S]         every workload, untraced then traced;
#                                                     writes benchmark/out/results.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                     one run, as the driver calls it
#   benchmark/run.sh compare A.json B.json            is B no worse than A?
set -euo pipefail
# `compare` takes its two files relative to where it was called from.
if [[ "${1:-}" == compare && $# -eq 3 ]]; then
  set -- compare "$(realpath -- "$2")" "$(realpath -- "$3")"
fi
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Cargo's own progress goes to stderr; standard output carries results only.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/hignn-benchmark"

export HIGNN_BENCHMARK_RUSTC="$(rustc --version 2>/dev/null || true)"
commit="$(git rev-parse HEAD 2>/dev/null || true)"
if [[ -n "$commit" && -n "$(git status --porcelain 2>/dev/null)" ]]; then
  commit="$commit-dirty"
fi
export HIGNN_BENCHMARK_COMMIT="$commit"

case "${1:-}" in
  compare | manifest | all) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$bin" "$@"
  fi
done
exec "$bin" all "$@"
