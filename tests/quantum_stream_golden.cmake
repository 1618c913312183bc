# Golden-output test for the per-quantum metrics stream: a short one-cell
# run (configs/quantum_stream_golden.json) must reproduce the committed
# JSON Lines and CSV streams byte for byte. IdenticalRunsProduceIdentical-
# Streams only compares a build with itself; this pins the bytes across
# commits, so any drift in key order, column order, number precision or
# null/empty-cell handling fails here as a diff against the fixture.
#
# Invoked by ctest (see tests/CMakeLists.txt) with:
#   -DDIKE_RUN=<dike_run binary> -DCONFIG=<quantum_stream_golden.json>
#   -DGOLDEN_JSONL=<expected .jsonl> -DGOLDEN_CSV=<expected .csv>
#   -DWORK_DIR=<scratch dir>
foreach(var DIKE_RUN CONFIG GOLDEN_JSONL GOLDEN_CSV WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "quantum_stream_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(format jsonl csv)
  string(TOUPPER "${format}" upper)
  set(golden "${GOLDEN_${upper}}")
  set(actual "${WORK_DIR}/stream.${format}")
  execute_process(
    COMMAND "${DIKE_RUN}" "${CONFIG}" --quantum-metrics "${actual}"
    OUTPUT_QUIET
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "dike_run --quantum-metrics ${actual} failed (exit ${code})")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${actual}" "${golden}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "quantum stream drifted from ${golden}; "
                        "compare ${actual} against it")
  endif()
endforeach()

message(STATUS "quantum stream golden passed in ${WORK_DIR}")
