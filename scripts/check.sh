#!/bin/sh
# Full verification wall:
#   1. tier-1 build + full ctest (default preset),
#   2. the real-thread tests (ctest label `stress`) repeated until they
#      fail, up to 100 times, so a race shows up whatever the scheduling,
#   3. static gates (scripts/lint.sh),
#   4. full ctest under ASan+UBSan (asan-ubsan preset, no recovery),
#   5. the model checker in BOTH memory-model configurations — the
#      happens-before layer on (HYPERALLOC_MC_MM=1: stale reads, race
#      detection, the mutant scenarios) and off (HYPERALLOC_MC_MM=0:
#      the SC-only fallback every older scenario was written against).
#      A failure prints which configuration produced it,
#   6. ThreadSanitizer on the lock-free paths (tsan preset): the LLFree
#      concurrent stress test, the host frame pool stress test,
#      the trace-layer counter/histogram tests, a capped model-check run
#      (the model checker is deterministic, so a small TSan run only
#      needs to cover the harness machinery itself), and the `stress`
#      label repeated.
set -e
cd "$(dirname "$0")/.."

echo "== tier-1: build + ctest (preset: default) =="
cmake --preset default >/dev/null
cmake --build --preset default -j
ctest --preset default -j "$(nproc)"

echo "== stress: real-thread tests, repeated (label: stress) =="
ctest --preset default -L stress --no-tests=error \
  --repeat until-fail:100 -j "$(nproc)"

echo "== lint: pragma-once / explicit memory orders / clang-tidy =="
sh scripts/lint.sh

echo "== asan-ubsan: full ctest (preset: asan-ubsan) =="
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j
ctest --preset asan-ubsan -j "$(nproc)"

echo "== model check: both memory-model configurations (preset: default) =="
# ctest above already ran these binaries in the build's default
# configuration; this wall pins each configuration explicitly so a
# regression names the offender ("memory model ON" vs "OFF") instead of
# depending on the developer's environment.
for mm in 1 0; do
  for bin in model_check_test memory_model_test; do
    if ! HYPERALLOC_MC_MM=$mm "./build/tests/$bin"; then
      echo "FAILED: $bin with HYPERALLOC_MC_MM=$mm (memory model" \
        "$([ "$mm" = 1 ] && echo ON || echo OFF))"
      exit 1
    fi
  done
done

echo "== tsan: lock-free paths (preset: tsan) =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j \
  --target llfree_concurrent_test host_memory_test trace_test span_test \
  model_check_test
./build-tsan/tests/llfree_concurrent_test
./build-tsan/tests/host_memory_test
./build-tsan/tests/trace_test
HYPERALLOC_MC_ITERS=50 ./build-tsan/tests/model_check_test
ctest --preset tsan -L stress --no-tests=error --repeat until-fail:100 \
  -j "$(nproc)"

echo "== all checks passed =="
