# bench_sim_throughput refuses what it does not know before it runs
# anything: an unknown flag exits nonzero naming the flag, --help prints the
# usage and exits 0, and in neither case is the --json report written.
#
# Invoked by ctest (see bench/CMakeLists.txt) with:
#   -DBENCH_SIM=<bench_sim_throughput binary> -DWORK_DIR=<scratch dir>
foreach(var BENCH_SIM WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_unknown_flag.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run_case(<name> <expect exit 0?> <regex the combined output must match>
#          <args>...)
function(run_case name expect_zero pattern)
  set(report "${WORK_DIR}/${name}.json")
  execute_process(COMMAND "${BENCH_SIM}" ${ARGN} "--json=${report}"
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  set(log "${out}${err}")
  if(expect_zero AND NOT code EQUAL 0)
    message(FATAL_ERROR "${name}: exited ${code}, expected 0\n${log}")
  endif()
  if(NOT expect_zero AND (code EQUAL 0 OR NOT code MATCHES "^[0-9]+$"))
    message(FATAL_ERROR "${name}: exited '${code}', expected a nonzero code\n${log}")
  endif()
  if(NOT log MATCHES "${pattern}")
    message(FATAL_ERROR "${name}: output lacks '${pattern}'\n${log}")
  endif()
  if(EXISTS "${report}" OR EXISTS "${WORK_DIR}/BENCH_sim.json")
    message(FATAL_ERROR "${name}: a report was written\n${log}")
  endif()
endfunction()

run_case(unknown FALSE "unknown flag --no-such-flag" --gbench=false
         --no-such-flag=1)
run_case(help TRUE "usage:" --help)
