# Test driver: cross-process shared-L2 smoke test. Two `lsra serve`
# processes attach to one shared-memory cache segment; the first serves a
# cold workload mix (publishing every module-level result to the L2), then
# the second serves the SAME mix with --verify (every response
# byte-compared against an offline compile) — its compiles must be served
# from the shared segment, asserted as cache.l2.hits > 0 in its exit
# metrics snapshot via check_trace.py --cache-stats --expect-l2-hits (after
# the --metrics schema check).
# Invoked by ctest as
#   cmake -DLSRA_TOOL=... -DPYTHON=... -DCHECKER=... -DOUT_DIR=... -P this
set(SOCK_A "${OUT_DIR}/check_l2_a.sock")
set(SOCK_B "${OUT_DIR}/check_l2_b.sock")
set(SEG "${OUT_DIR}/check_l2.seg")
set(STATS_A "${OUT_DIR}/check_l2_a.stats.json")
set(STATS_B "${OUT_DIR}/check_l2_b.stats.json")

execute_process(
  COMMAND sh -ec "
    rm -f '${SOCK_A}' '${SOCK_B}' '${SEG}' '${STATS_A}' '${STATS_B}'
    '${LSRA_TOOL}' serve --socket='${SOCK_A}' --workers=2 \
        --l2-path='${SEG}' --l2-mb=64 --stats-json='${STATS_A}' &
    pid_a=\$!
    '${LSRA_TOOL}' serve --socket='${SOCK_B}' --workers=2 \
        --l2-path='${SEG}' --l2-mb=64 --stats-json='${STATS_B}' &
    pid_b=\$!
    trap 'kill \$pid_a \$pid_b 2>/dev/null' EXIT
    i=0
    while [ ! -S '${SOCK_A}' ] || [ ! -S '${SOCK_B}' ]; do
      i=\$((i+1))
      [ \$i -gt 300 ] && { echo 'servers never bound sockets' >&2; exit 1; }
      sleep 0.1
    done
    # Cold pass on server A: every workload compiled once, published to
    # the shared segment by the A worker that compiled it, before its reply.
    '${LSRA_TOOL}' loadgen --socket='${SOCK_A}' --connections=2 --pipeline=1 \
        --requests=8 --workloads=eqntott,espresso,sort,wc --verify
    rc=\$?
    [ \$rc -eq 0 ] || { echo \"cold loadgen failed (rc=\$rc)\" >&2; exit 1; }
    # Warm pass on server B: a fresh process-local L1, so any cache hit
    # here can only come from the shared segment. --verify keeps every
    # response byte-compared against an offline compile.
    out=\$('${LSRA_TOOL}' loadgen --socket='${SOCK_B}' --connections=2 --pipeline=1 \
        --requests=8 --workloads=eqntott,espresso,sort,wc --verify)
    wrc=\$?
    echo \"\$out\"
    [ \$wrc -eq 0 ] || { echo \"warm loadgen failed (rc=\$wrc)\" >&2; exit 1; }
    cached=\$(printf '%s' \"\$out\" | grep -o 'cached [0-9]*' | cut -d' ' -f2)
    [ \"\${cached:-0}\" -gt 0 ] || {
      echo \"second server saw no cached responses: \$cached\" >&2; exit 1; }
    kill -TERM \$pid_b; wait \$pid_b
    brc=\$?
    kill -TERM \$pid_a; wait \$pid_a
    arc=\$?
    trap - EXIT
    [ \$brc -eq 0 ] || { echo \"server B exit rc=\$brc\" >&2; exit 1; }
    [ \$arc -eq 0 ] || { echo \"server A exit rc=\$arc\" >&2; exit 1; }
  "
  RESULT_VARIABLE RUN_RC
  OUTPUT_VARIABLE RUN_OUT
  ERROR_VARIABLE RUN_ERR)
message(STATUS "${RUN_OUT}")
if(NOT RUN_RC EQUAL 0)
  message(FATAL_ERROR
          "shared-L2 smoke failed (rc=${RUN_RC}):\n${RUN_OUT}${RUN_ERR}")
endif()

# Server B's snapshot: the tier contract must hold AND the warm pass must
# show actual cross-process hits. Server A's snapshot only needs the tier
# contract (it was the cold side).
execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "--metrics" "${STATS_B}"
          "--cache-stats" "${STATS_B}" "--expect-l2-hits"
  RESULT_VARIABLE CHECK_RC
  OUTPUT_VARIABLE CHECK_OUT
  ERROR_VARIABLE CHECK_ERR)
message(STATUS "${CHECK_OUT}")
if(NOT CHECK_RC EQUAL 0)
  message(FATAL_ERROR
          "check_trace.py --expect-l2-hits failed on server B "
          "(rc=${CHECK_RC}):\n${CHECK_ERR}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "--metrics" "${STATS_A}"
          "--cache-stats" "${STATS_A}"
  RESULT_VARIABLE ACHECK_RC
  OUTPUT_VARIABLE ACHECK_OUT
  ERROR_VARIABLE ACHECK_ERR)
message(STATUS "${ACHECK_OUT}")
if(NOT ACHECK_RC EQUAL 0)
  message(FATAL_ERROR
          "check_trace.py --cache-stats failed on server A "
          "(rc=${ACHECK_RC}):\n${ACHECK_ERR}")
endif()
