# Test script: a --regs= value outside 0 or 3..25, or not all digits, is
# refused with a message and exit code 1 before anything is compiled (one
# register crashed binpacking and 26 handed an integer register to float
# values). Checks `lsra run`, and `lsra compare` and `lsra fuzz`, which
# parse the flag themselves. Invoked by ctest as
#   cmake -DLSRA_TOOL=... -P this
foreach(N 1 2 26 4294967295 -1 zz)
  foreach(CMD "run;doduc" "compare;doduc" "fuzz;--count=1")
    execute_process(
      COMMAND ${LSRA_TOOL} ${CMD} --regs=${N}
      RESULT_VARIABLE RC
      OUTPUT_VARIABLE OUT
      ERROR_VARIABLE ERR
      TIMEOUT 60)
    if(NOT RC EQUAL 1 OR NOT ERR MATCHES "bad register limit '${N}'")
      message(FATAL_ERROR "lsra ${CMD} --regs=${N}: want exit 1 and a "
                          "'bad register limit' message, got rc=${RC}:\n"
                          "${OUT}${ERR}")
    endif()
  endforeach()
endforeach()
message(STATUS "every out-of-range --regs= value refused with exit 1")
