# Test driver: run the CLI with every observability sink enabled, then
# validate the emitted artifacts with check_trace.py. Invoked by ctest as
#   cmake -DLSRA_TOOL=... -DPYTHON=... -DCHECKER=... -DOUT_DIR=... -P this
set(TRACE "${OUT_DIR}/check_trace.trace.json")
set(STATS "${OUT_DIR}/check_trace.stats.json")
set(DECISIONS "${OUT_DIR}/check_trace.decisions.jsonl")

execute_process(
  COMMAND "${LSRA_TOOL}" run espresso --allocator=binpack --regs=8
          "--trace-out=${TRACE}" "--stats-json=${STATS}"
          "--explain=${DECISIONS}"
  RESULT_VARIABLE RUN_RC
  OUTPUT_VARIABLE RUN_OUT
  ERROR_VARIABLE RUN_ERR)
if(NOT RUN_RC EQUAL 0)
  message(FATAL_ERROR "lsra run failed (rc=${RUN_RC}):\n${RUN_OUT}${RUN_ERR}")
endif()

# The stats snapshot is the metrics document a StatsRequest returns, so it
# must pass the --metrics schema. The run above compiles through the
# default-on compile cache, so the same snapshot must also satisfy the
# cache.* counter contract, and the CLI exports the heap-allocation
# profile, so the alloc.count/alloc.bytes contract must hold too.
execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "--trace" "${TRACE}" "--metrics" "${STATS}"
          "--decisions" "${DECISIONS}" "--cache-stats" "${STATS}"
          "--alloc-stats" "${STATS}"
  RESULT_VARIABLE CHECK_RC
  OUTPUT_VARIABLE CHECK_OUT
  ERROR_VARIABLE CHECK_ERR)
message(STATUS "${CHECK_OUT}")
if(NOT CHECK_RC EQUAL 0)
  message(FATAL_ERROR "check_trace.py failed (rc=${CHECK_RC}):\n${CHECK_ERR}")
endif()
