# Test driver: end-to-end serving smoke test. Starts `lsra serve` on a
# unix socket, replays part of the workloads corpus against it with
# `lsra loadgen` (4 connections, one request in flight on each), stops the
# server with SIGTERM to exercise the graceful drain, and validates the
# emitted metrics snapshot with check_trace.py --metrics and the server.*
# and cache.* contracts.
# Invoked by ctest as
#   cmake -DLSRA_TOOL=... -DPYTHON=... -DCHECKER=... -DOUT_DIR=... -P this
set(SOCK "${OUT_DIR}/check_serve.sock")
set(STATS "${OUT_DIR}/check_serve.stats.json")

# Backgrounding and signal delivery need a shell; everything is kept in
# one script so the server is reliably torn down on any failure.
execute_process(
  COMMAND sh -ec "
    rm -f '${SOCK}' '${STATS}'
    '${LSRA_TOOL}' serve --socket='${SOCK}' --workers=4 \
        --stats-json='${STATS}' &
    pid=\$!
    trap 'kill \$pid 2>/dev/null' EXIT
    # Wait for the listener (TSan builds start slowly).
    i=0
    while [ ! -S '${SOCK}' ]; do
      i=\$((i+1))
      [ \$i -gt 300 ] && { echo 'server never bound socket' >&2; exit 1; }
      sleep 0.1
    done
    '${LSRA_TOOL}' loadgen --socket='${SOCK}' --connections=4 --pipeline=1 \
        --requests=32 --workloads=eqntott,espresso,sort,wc --run
    rc=\$?
    # Repeated-mix leg: 4 unique programs cycled over 32 requests should be
    # served mostly from the compile cache (28 hits minus first-wave races).
    out=\$('${LSRA_TOOL}' loadgen --socket='${SOCK}' --connections=4 --pipeline=1 \
        --requests=32 --unique=4 --mix-seed=7)
    mixrc=\$?
    echo \"\$out\"
    cached=\$(printf '%s' \"\$out\" | grep -o 'cached [0-9]*' | cut -d' ' -f2)
    [ \$mixrc -eq 0 ] || { echo \"mix loadgen failed (rc=\$mixrc)\" >&2; exit 1; }
    [ \"\${cached:-0}\" -ge 20 ] || {
      echo \"repeated-mix hit rate too low: \$cached/32 cached\" >&2; exit 1; }
    # Pipelined leg: 64 connections x 8 deep, duplicate-heavy corpus,
    # every CompileOk byte-compared against an offline compile. The first in-flight wave is all duplicates, so the server's
    # request merging must be visible in the responses.
    pout=\$('${LSRA_TOOL}' loadgen --socket='${SOCK}' --connections=64 \
        --pipeline=8 --requests=512 --unique=4 --mix-seed=11 --verify)
    prc=\$?
    echo \"\$pout\"
    [ \$prc -eq 0 ] || { echo \"pipelined loadgen failed (rc=\$prc)\" >&2; exit 1; }
    merged=\$(printf '%s' \"\$pout\" | grep -o 'merged [0-9]*' | cut -d' ' -f2)
    [ \"\${merged:-0}\" -gt 0 ] || {
      echo \"duplicate-heavy pipelined mix produced no merges\" >&2; exit 1; }
    kill -TERM \$pid
    wait \$pid
    srv=\$?
    trap - EXIT
    [ \$rc -eq 0 ] || { echo \"loadgen failed (rc=\$rc)\" >&2; exit 1; }
    [ \$srv -eq 0 ] || { echo \"server exit rc=\$srv\" >&2; exit 1; }
  "
  RESULT_VARIABLE RUN_RC
  OUTPUT_VARIABLE RUN_OUT
  ERROR_VARIABLE RUN_ERR)
message(STATUS "${RUN_OUT}")
if(NOT RUN_RC EQUAL 0)
  message(FATAL_ERROR "serve smoke failed (rc=${RUN_RC}):\n${RUN_OUT}${RUN_ERR}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "--metrics" "${STATS}"
          "--server-stats" "${STATS}" "--cache-stats" "${STATS}"
  RESULT_VARIABLE CHECK_RC
  OUTPUT_VARIABLE CHECK_OUT
  ERROR_VARIABLE CHECK_ERR)
message(STATUS "${CHECK_OUT}")
if(NOT CHECK_RC EQUAL 0)
  message(FATAL_ERROR
          "check_trace.py --server-stats failed (rc=${CHECK_RC}):\n${CHECK_ERR}")
endif()

# --- telemetry leg ----------------------------------------------------------
# A fresh server with full request tracing: one loadgen run with client-side
# records, two live StatsRequest fetches (json for the validators, prom and
# text for rendering smoke), then the graceful drain and its --stats-json
# exit snapshot, the last link of the never-go-backwards chain. The
# lifetime histograms cover exactly this run, so the server p99 can be
# bracketed by the exact percentiles of the request log's and the
# loadgen's per-request spans.
set(TSOCK "${OUT_DIR}/check_serve_telemetry.sock")
set(REQLOG "${OUT_DIR}/check_serve.request_log.jsonl")
set(RECORDS "${OUT_DIR}/check_serve.records.jsonl")
set(LGJSON "${OUT_DIR}/check_serve.loadgen.json")
set(SNAP1 "${OUT_DIR}/check_serve.metrics1.json")
set(SNAP2 "${OUT_DIR}/check_serve.metrics2.json")
set(TTRACE "${OUT_DIR}/check_serve.trace.json")
set(TSTATS "${OUT_DIR}/check_serve_telemetry.stats.json")

execute_process(
  COMMAND sh -ec "
    rm -f '${TSOCK}' '${REQLOG}' '${RECORDS}' '${LGJSON}' \
        '${SNAP1}' '${SNAP2}' '${TTRACE}' '${TSTATS}'
    '${LSRA_TOOL}' serve --socket='${TSOCK}' --workers=4 \
        --request-log='${REQLOG}' --trace-out='${TTRACE}' \
        --stats-json='${TSTATS}' &
    pid=\$!
    trap 'kill \$pid 2>/dev/null' EXIT
    i=0
    while [ ! -S '${TSOCK}' ]; do
      i=\$((i+1))
      [ \$i -gt 300 ] && { echo 'server never bound socket' >&2; exit 1; }
      sleep 0.1
    done
    '${LSRA_TOOL}' loadgen --socket='${TSOCK}' --connections=4 --pipeline=1 \
        --requests=64 --workloads=eqntott,espresso,sort,wc \
        --record-out='${RECORDS}' --json='${LGJSON}'
    rc=\$?
    [ \$rc -eq 0 ] || { echo \"telemetry loadgen failed (rc=\$rc)\" >&2; exit 1; }
    '${LSRA_TOOL}' stats --socket='${TSOCK}' > '${SNAP1}'
    '${LSRA_TOOL}' stats --socket='${TSOCK}' --prom | \
        grep -q '^lsra_server_completed ' || {
      echo 'prom rendering missing lsra_server_completed' >&2; exit 1; }
    '${LSRA_TOOL}' top --socket='${TSOCK}' --count=1 --interval-ms=10 | \
        grep -q 'lsra telemetry snapshot' || {
      echo 'top rendering missing snapshot header' >&2; exit 1; }
    '${LSRA_TOOL}' stats --socket='${TSOCK}' > '${SNAP2}'
    kill -TERM \$pid
    wait \$pid
    srv=\$?
    trap - EXIT
    [ \$srv -eq 0 ] || { echo \"telemetry server exit rc=\$srv\" >&2; exit 1; }
  "
  RESULT_VARIABLE TRUN_RC
  OUTPUT_VARIABLE TRUN_OUT
  ERROR_VARIABLE TRUN_ERR)
message(STATUS "${TRUN_OUT}")
if(NOT TRUN_RC EQUAL 0)
  message(FATAL_ERROR
          "telemetry leg failed (rc=${TRUN_RC}):\n${TRUN_OUT}${TRUN_ERR}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}"
          "--metrics" "${SNAP1}" "--metrics" "${SNAP2}"
          "--metrics" "${TSTATS}" "--server-stats" "${TSTATS}"
          "--records" "${RECORDS}"
          "--join" "${RECORDS}:${REQLOG}"
          "--p99" "${SNAP1}:${RECORDS}:${REQLOG}"
          "--trace" "${TTRACE}"
  RESULT_VARIABLE TCHECK_RC
  OUTPUT_VARIABLE TCHECK_OUT
  ERROR_VARIABLE TCHECK_ERR)
message(STATUS "${TCHECK_OUT}")
if(NOT TCHECK_RC EQUAL 0)
  message(FATAL_ERROR
          "telemetry validation failed (rc=${TCHECK_RC}):\n${TCHECK_ERR}")
endif()
