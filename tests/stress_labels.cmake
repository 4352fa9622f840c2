# Labels every test that runs real threads `stress`, so the lock-free
# paths can be hammered on their own: `ctest -L stress --repeat
# until-fail:100`. gtest_discover_tests only learns the test names at
# ctest time, so tests/CMakeLists.txt registers this file as a ctest
# include that runs after every discovered list (<target>_TESTS).
# Every test in llfree_concurrent_test is labeled through its list:
# the LLFree batch and single-run races and the FrameCache slots on
# real threads (LLFreeConcurrent.FrameCacheSlotsOnRealThreads).
# If any name listed here no longer exists, ctest silently drops the
# whole call and the label matches nothing; scripts/check.sh and CI run
# the label with `--no-tests=error` so that shows up as a failure.
set_tests_properties(
  ${llfree_concurrent_test_TESTS}
  HostMemorySharded.ConcurrentStressConservesFrames
  HostMemorySharded.ConcurrentSnapshotsStayInBounds
  HostMemorySharded.ConcurrentReservesBelowCapacityNeverFail
  SpanTest.RequestSpanPropagatesAcrossThreads
  TraceTest.CountersExactUnderEightThreads
  PROPERTIES LABELS stress)
