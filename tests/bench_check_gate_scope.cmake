# bench_check's decide-parallel floor applies where the claim is made and
# nowhere else: a curve measured at >= 4096 threads and >= 8 clusters is
# held to the default 2x jobs >= 4 floor, a smaller (capped) curve is
# printed under a "not gated" banner and recorded as ungated in the
# verdict, and a malformed decide_parallel_scaling section is an input
# error. Every case compares one fixture report in tests/data/bench_check/
# against the same leap-only baseline, so only the decide section varies.
#
# Invoked by ctest (see tests/CMakeLists.txt) with:
#   -DBENCH_CHECK=<bench_check binary> -DDATA_DIR=<tests/data/bench_check>
#   -DWORK_DIR=<scratch dir>
foreach(var BENCH_CHECK DATA_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_check_gate_scope.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# check_case(<fixture> <expected exit> <expected decide_parallel_gated>
#            [<regex the combined output must match>...])
function(check_case fixture expected gated)
  set(verdict "${WORK_DIR}/${fixture}.verdict.json")
  execute_process(COMMAND "${BENCH_CHECK}" "${DATA_DIR}/baseline.json"
                          "${DATA_DIR}/${fixture}.json" "--out=${verdict}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(log "${out}${err}")
  if(NOT code EQUAL expected)
    message(FATAL_ERROR
            "${fixture}: bench_check exited ${code}, expected ${expected}\n${log}")
  endif()
  foreach(pattern IN LISTS ARGN)
    if(NOT log MATCHES "${pattern}")
      message(FATAL_ERROR "${fixture}: output lacks '${pattern}'\n${log}")
    endif()
  endforeach()
  file(READ "${verdict}" text)
  if(NOT text MATCHES "\"decide_parallel_gated\": ${gated}")
    message(FATAL_ERROR
            "${fixture}: verdict lacks decide_parallel_gated=${gated}\n${text}")
  endif()
endfunction()

# (a) At the claimed point the default floor still bites, naming the row.
check_case(claim_below_floor 1 true
           "FAIL: candidate decide_parallel_scaling jobs=4 speedup 0\\.41x < 2\\.00x floor")
# (b) The same point above the floor passes, and says it was gated.
check_case(claim_above_floor 0 true
           "jobs=4: wall p99 399\\.5 us, 2\\.10x serial \\(floor 2\\.00x\\)")
# (c) A --max-threads=256 smoke curve is measured and printed, not gated.
check_case(capped_below_floor 0 false
           "not gated: n=256, 8 clusters is below the 4096-thread"
           "jobs=2: wall p99 89\\.3 us, 0\\.75x serial \\(not gated\\)"
           "jobs=4: wall p99 171\\.8 us, 0\\.39x serial \\(not gated\\)")
# A full-size machine split into fewer than 8 clusters is not the claim
# either.
check_case(claim_few_clusters 0 false
           "not gated: n=4096, 4 clusters is below the 4096-thread")
# (d) and the other malformed sections exit 2 before any gate runs.
check_case(missing_point 2 false "decide_parallel_threads")
check_case(jobs_not_from_one 2 false "jobs must start at 1")
check_case(jobs_not_increasing 2 false "jobs must start at 1 and strictly increase")
check_case(p99_not_positive 2 false "decide_p99_ns")
