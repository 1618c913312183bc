# Throughput regression gate: measure the engine benchmark fresh, then let
# bench_check compare its per-workload leap ticks/sec against the committed
# BENCH_sim.json — a >MAX_PCT% geometric-mean regression fails the test.
#
# Opt-in (DIKE_BENCH_GATE / the `bench` preset): the comparison is
# wall-clock sensitive and only meaningful on a quiet machine comparable to
# the one that produced the baseline.
#
# Invoked by ctest (see tests/CMakeLists.txt) with:
#   -DBENCH_SIM=<bench_sim_throughput binary> -DBENCH_CHECK=<bench_check
#   binary> -DBASELINE=<committed BENCH_sim.json> -DWORK_DIR=<scratch dir>
#   [-DMAX_PCT=<budget, default 10>]
#   [-DMAX_LIVE_PCT=<live-plane overhead budget, default 5>]
foreach(var BENCH_SIM BENCH_CHECK BASELINE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_gate.cmake: -D${var}=... is required")
  endif()
endforeach()
if(NOT DEFINED MAX_PCT)
  set(MAX_PCT 10)
endif()
if(NOT DEFINED MAX_LIVE_PCT)
  set(MAX_LIVE_PCT 5)
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(FRESH "${WORK_DIR}/BENCH_fresh.json")

# Same options the BENCH_sim.json refresh uses (bench/CMakeLists.txt), so
# the two measurements are comparable.
execute_process(COMMAND ${BENCH_SIM} --gbench=false --scale=0.5
                        --json=${FRESH}
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "bench_sim_throughput failed (exit ${code})")
endif()

# Default budgets beyond the two flags include the clustered-scheduler
# scaling floor (--min-cluster-speedup=5): the >= 8-cluster, >= 4096-thread
# rows of both reports must beat the flat pipeline's decide p99 by >= 5x.
# --min-decide-parallel-speedup=2 additionally requires the candidate's
# decide_parallel_scaling rows with jobs >= 4 to halve the wall-clock
# decide p99 vs the serial plan phase. The uncapped run measures that curve
# at 4096 threads / 32 clusters, the only point bench_check gates it at
# (a capped run's curve is printed, not gated); a single-point curve
# (low-core host) passes vacuously with a loud warning from bench_check.
execute_process(COMMAND ${BENCH_CHECK} ${BASELINE} ${FRESH}
                        --max-regression-pct=${MAX_PCT}
                        --max-live-overhead-pct=${MAX_LIVE_PCT}
                        --min-decide-parallel-speedup=2
                        --out=${WORK_DIR}/verdict.json
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "bench_check gate failed (exit ${code})")
endif()
