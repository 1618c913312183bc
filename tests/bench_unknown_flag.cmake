# A bench binary refuses what it does not know before it runs anything: an
# unknown flag exits nonzero naming the flag, --help prints the usage and
# exits 0, and in neither case is a file written (bench_sim_throughput's
# default --json report lands in the working directory).
#
# Invoked by ctest (see bench/CMakeLists.txt) with:
#   -DBENCH=<bench binary> -DWORK_DIR=<scratch dir>
foreach(var BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_unknown_flag.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run_case(<name> <expect exit 0?> <regex the combined output must match>
#          <args>...)
function(run_case name expect_zero pattern)
  execute_process(COMMAND "${BENCH}" ${ARGN}
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
  file(GLOB written "${WORK_DIR}/*")
  if(written)
    message(FATAL_ERROR "${name}: wrote ${written}\n${log}")
  endif()
endfunction()

run_case(unknown FALSE "unknown flag --no-such-flag" --gbench=false
         --no-such-flag=1)
run_case(help TRUE "usage:" --help)
