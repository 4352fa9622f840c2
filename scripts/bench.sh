#!/bin/sh
# Deterministic bench gate: builds the default preset, runs bench_runner,
# and validates the emitted JSON against the hyperalloc-bench-v7 schema.
#
#   scripts/bench.sh              full run, writes BENCH_BASELINE.json
#   scripts/bench.sh --smoke      CI-sized run (seconds), same schema
#
# Extra flags are passed through to bench_runner (--threads=N,
# --out=PATH, --trace-out=PATH). BENCH_BASELINE.json at the repo root is
# the one committed baseline; compare a fresh run against it with
#   python3 scripts/perf_gate.py BENCH_BASELINE.json CURRENT.json
set -e
cd "$(dirname "$0")/.."

OUT=BENCH_BASELINE.json
for arg in "$@"; do
  case "$arg" in
    --out=*) OUT="${arg#--out=}" ;;
  esac
done

cmake --preset default >/dev/null
cmake --build --preset default -j "$(nproc)" >/dev/null

./build/bench/bench_runner "$@"

python3 scripts/check_bench_json.py "$OUT"
echo "bench OK: $OUT"
