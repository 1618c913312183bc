# Clustered-at-1 equivalence, end to end: a `cluster.clusters = 1` config
# builds the flat DikeScheduler, so it must be byte-identical to the flat
# config — same report JSON, and checkpoints dike_diff sees as identical
# (the config codec omits a <2-cluster section precisely so the embedded
# specs match). Checked on a plain config and on one with the fault layer
# active, so it holds under failed actuations and corrupted samples too.
#
# Invoked by ctest (see tests/CMakeLists.txt) with:
#   -DDIKE_RUN=<dike_run binary> -DDIKE_DIFF=<dike_diff binary>
#   -DCONFIG_FLAT=<flat json> -DCONFIG_C1=<clusters=1 json>
#   -DCONFIG_FAULT_FLAT=<faulted flat json>
#   -DCONFIG_FAULT_C1=<faulted clusters=1 json> -DWORK_DIR=<scratch dir>
foreach(var DIKE_RUN DIKE_DIFF CONFIG_FLAT CONFIG_C1 CONFIG_FAULT_FLAT
            CONFIG_FAULT_C1 WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "scale_equivalence.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_step)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    list(JOIN ARGN " " pretty)
    message(FATAL_ERROR "step failed (exit ${code}): ${pretty}")
  endif()
endfunction()

# check_pair(tag flat_config c1_config): run both, require byte-identical
# reports and dike_diff-identical checkpoints.
function(check_pair tag flat_config c1_config)
  set(FLAT_CKPT "${WORK_DIR}/${tag}_flat.ckpt")
  set(C1_CKPT "${WORK_DIR}/${tag}_c1.ckpt")
  set(FLAT_JSON "${WORK_DIR}/${tag}_flat.json")
  set(C1_JSON "${WORK_DIR}/${tag}_c1.json")
  run_step("${DIKE_RUN}" "${flat_config}"
           --checkpoint-out "${FLAT_CKPT}" --checkpoint-every 2
           --json "${FLAT_JSON}")
  run_step("${DIKE_RUN}" "${c1_config}"
           --checkpoint-out "${C1_CKPT}" --checkpoint-every 2
           --json "${C1_JSON}")
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${FLAT_JSON}" "${C1_JSON}"
                  RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
            "${tag}: clusters=1 report differs from the flat scheduler's")
  endif()
  execute_process(COMMAND "${DIKE_DIFF}" "${FLAT_CKPT}" "${C1_CKPT}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
            "${tag}: dike_diff saw flat vs clusters=1 diverge: ${out}")
  endif()
endfunction()

check_pair(plain "${CONFIG_FLAT}" "${CONFIG_C1}")
check_pair(faults "${CONFIG_FAULT_FLAT}" "${CONFIG_FAULT_C1}")

message(STATUS "scale equivalence passed in ${WORK_DIR}")
