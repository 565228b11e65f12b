# Test script: `lsra fuzz` checks programs on worker threads but assembles
# its report in program order, so the report must not depend on the
# thread count. Runs one seed range at --threads=1 and --threads=4 and
# requires byte-identical stdout. Invoked by ctest as
#   cmake -DLSRA_TOOL=... -P this
set(ARGS fuzz --seed=7 --count=40 --no-reduce)
foreach(T 1 4)
  execute_process(
    COMMAND ${LSRA_TOOL} ${ARGS} --threads=${T}
    RESULT_VARIABLE RC_${T}
    OUTPUT_VARIABLE OUT_${T}
    ERROR_VARIABLE ERR_${T})
  if(NOT RC_${T} EQUAL 0)
    message(FATAL_ERROR
            "lsra fuzz --threads=${T} failed (rc=${RC_${T}}):\n"
            "${OUT_${T}}${ERR_${T}}")
  endif()
endforeach()
if(NOT OUT_1 STREQUAL OUT_4)
  message(FATAL_ERROR "lsra fuzz reports differ between --threads=1 and "
                      "--threads=4:\n--- threads=1\n${OUT_1}\n"
                      "--- threads=4\n${OUT_4}")
endif()
message(STATUS "lsra fuzz report identical at 1 and 4 threads")
