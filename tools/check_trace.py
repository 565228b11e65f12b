#!/usr/bin/env python3
"""Validate the observability outputs of `lsra run`, `lsra serve` and
`lsra loadgen`.

Checks any of these artifacts, failing (exit 1) after reporting every
schema or contract violation:

  --trace t.json       Chrome trace_event document: a JSON object with a
                       traceEvents array of complete ("ph": "X") events
                       carrying name/cat/pid/tid and numeric ts/dur, with
                       spans properly nested per tid.
  --decisions d.jsonl  Decision log: {"kind": "decision"} lines with a
                       known event name and a 0/1 split flag.
  --metrics m.json     Metrics document: the StatsReply a live `lsra stats`
                       fetches, or the snapshot `lsra run|serve
                       --stats-json` writes. Versioned schema, count ==
                       sum-of-buckets for every histogram, every rolling
                       window <= lifetime, and p50 <= p90 <= p95 <= p99
                       within [min, max]. Pass the flag more than once
                       (earlier snapshot first) to also check that counters
                       and lifetime histogram counts never go backwards.
  --server-stats s.json
                       Metrics document written by `lsra serve
                       --stats-json`: the --metrics schema plus the
                       server.* counter set (connections,
                       requests, accepted, completed, bytes_in, bytes_out),
                       the queue/latency histograms (server.queue_wait_us,
                       server.latency_us, server.compile_us,
                       server.queue_depth.dist) and the server.queue_depth /
                       server.inflight gauges, with the cross-counter
                       invariants (completed <= accepted <= requests, every
                       answered request accounted by exactly one outcome
                       counter, enqueued == dequeued and both gauges back to
                       zero after a graceful drain).
  --records r.jsonl    Per-request records written by `lsra loadgen
                       --record-out`: unique ids, send_ns <= recv_ns,
                       non-negative queue_us / latency_ms.
  --join r.jsonl:l.jsonl
                       Join loadgen --record-out records against the server
                       --request-log by request id: every server-side record
                       must match a client record, arrive inside the
                       client's [send, recv] window, and agree on queue_us.
  --p99 m.json:r.jsonl:l.jsonl
                       Bracket the server-side latency histogram p99
                       (server.latency_us, lifetime) between the same rank
                       of two exact per-request spans that nest around each
                       histogram sample: the server's own arrival-to-answer
                       time (request log total_us) below, the client's
                       latency (loadgen records) above. Histogram bucketing
                       contributes at most 2.5% either way.
  --cache-stats s.json
                       Metrics document from a cache-enabled run: the
                       --metrics schema plus the cache.* counters (hits, misses,
                       insertions, evictions) and the cache.bytes /
                       cache.entries gauges, with the lifetime invariants
                       evictions <= insertions <= misses. When any
                       cache.l2.* metric is present the tier contract is
                       checked too: l2.hits + l2.misses <= cache.misses,
                       l2.fills <= cache.misses, and L2 occupancy within
                       cache.l2.capacity_bytes. --expect-l2-hits
                       additionally requires cache.l2.hits > 0 (the
                       cross-process warm-start assertion).
  --alloc-stats s.json
                       Metrics document of `lsra run --stats-json`, which
                       exports the heap-allocation profile: the --metrics
                       schema plus the alloc.count / alloc.bytes counters (positive, with alloc.bytes >= alloc.count:
                       every allocation requests at least one byte).

Usage: check_trace.py [--trace FILE] [--decisions FILE]
                      [--server-stats FILE] [--cache-stats FILE
                      [--expect-l2-hits]] [--alloc-stats FILE]
                      [--metrics FILE ...]
                      [--records FILE] [--join REC:LOG]
                      [--p99 METRICS:REC:LOG]
"""

import argparse
import json
import math
import sys

DECISION_EVENTS = {
    "evict-store",
    "evict-convention",
    "evict-move",
    "evict-drop",
    "second-chance-load",
    "second-chance-def",
    "coalesce-move",
    "spill-whole",
    "cache-hit",
}

errors = []


def fail(msg):
    errors.append(msg)


def check_trace(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON: {e}")
            return
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: top level must be an object with a traceEvents array")
        return
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty array")
        return
    per_tid = {}
    for i, e in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(e, dict):
            fail(f"{where}: not an object")
            continue
        if e.get("ph") != "X":
            fail(f"{where}: ph must be 'X', got {e.get('ph')!r}")
        for key in ("name", "cat"):
            if not isinstance(e.get(key), str) or not e[key]:
                fail(f"{where}: missing or empty '{key}'")
        for key in ("ts", "dur"):
            if not isinstance(e.get(key), (int, float)):
                fail(f"{where}: '{key}' must be a number")
            elif e[key] < 0:
                fail(f"{where}: '{key}' must be non-negative")
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), int):
                fail(f"{where}: '{key}' must be an integer")
        # Request-scoped spans (cat "request") are logical per-request
        # tracks flushed through whichever worker finished the request;
        # they are exempt from the per-thread stack discipline.
        if isinstance(e.get("tid"), int) and e.get("cat") != "request":
            per_tid.setdefault(e["tid"], []).append(e)

    # Per-tid nesting: spans on one thread must form a stack (the format
    # renders them as stacked slices; overlap without containment is a bug).
    for tid, spans in per_tid.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            end = e["ts"] + e["dur"]
            while stack and e["ts"] >= stack[-1]:
                stack.pop()
            if stack and end > stack[-1]:
                fail(
                    f"{path}: tid {tid}: span '{e['name']}' "
                    f"[{e['ts']}, {end}) overlaps an enclosing span "
                    f"without nesting inside it"
                )
                continue
            stack.append(end)
    print(f"{path}: {len(events)} events on {len(per_tid)} thread(s): OK"
          if not errors else f"{path}: checked")


def check_jsonl_lines(path):
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not valid JSON: {e}")
                continue
            if not isinstance(obj, dict):
                fail(f"{path}:{lineno}: not a JSON object")
                continue
            yield lineno, obj


def check_decisions(path):
    n = 0
    for lineno, obj in check_jsonl_lines(path):
        where = f"{path}:{lineno}"
        if obj.get("kind") != "decision":
            fail(f"{where}: kind must be 'decision'")
            continue
        if not isinstance(obj.get("fn"), str) or not obj["fn"]:
            fail(f"{where}: missing 'fn'")
        event = obj.get("event")
        if event not in DECISION_EVENTS:
            fail(f"{where}: unknown event {event!r}")
        if obj.get("split") not in (0, 1):
            fail(f"{where}: 'split' must be 0 or 1")
        if not isinstance(obj.get("why"), str) or not obj["why"]:
            fail(f"{where}: missing 'why'")
        n += 1
    print(f"{path}: {n} decision lines: OK")


SERVER_COUNTERS = (
    "server.connections",
    "server.requests",
    "server.accepted",
    "server.completed",
    "server.bytes_in",
    "server.bytes_out",
)
SERVER_HISTS = (
    "server.queue_depth.dist",
    "server.queue_wait_us",
    "server.compile_us",
    "server.latency_us",
)
SERVER_GAUGES = ("server.queue_depth", "server.inflight")


def load_stats(path):
    """The counters, gauges and lifetime histograms of one metrics
    document, after the --metrics schema check; None if that failed."""
    before = len(errors)
    docs = check_metrics([path])
    if len(errors) > before or not docs:
        return None
    doc = docs[0][1]
    hists = {n: h["life"] for n, h in doc["histograms"].items()}
    return doc["counters"], doc["gauges"], hists


def check_server_stats(path):
    """The --metrics schema plus the server.* counter contract."""
    stats = load_stats(path)
    if stats is None:
        return
    counters, gauges, hists = stats
    for name in SERVER_COUNTERS:
        if name not in counters:
            fail(f"{path}: missing required counter {name!r}")
    for name in SERVER_HISTS:
        if name not in hists:
            fail(f"{path}: missing required histogram {name!r}")
    for name in SERVER_GAUGES:
        if name not in gauges:
            fail(f"{path}: missing required gauge {name!r}")
    if any(n not in counters for n in SERVER_COUNTERS):
        return

    requests = counters["server.requests"]
    accepted = counters["server.accepted"]
    completed = counters["server.completed"]
    if not (completed <= accepted <= requests):
        fail(
            f"{path}: expected completed <= accepted <= requests, got "
            f"{completed} / {accepted} / {requests}"
        )
    # Every request is answered by exactly one typed outcome: CompileOk,
    # Error (bad input, a failed run=1 run, a verifier reject), Rejected,
    # DeadlineExceeded, or ShuttingDown.
    outcomes = completed + sum(
        counters.get(f"server.{n}", 0)
        for n in ("parse_errors", "run_errors", "verify_rejects", "rejected",
                  "deadline_exceeded", "shutdown_rejected")
    )
    if outcomes != requests:
        fail(
            f"{path}: outcome counters sum to {outcomes}, "
            f"but server.requests is {requests}"
        )
    if requests and counters["server.bytes_in"] <= 0:
        fail(f"{path}: server.bytes_in must be positive when requests > 0")
    if requests and counters["server.bytes_out"] <= 0:
        fail(f"{path}: server.bytes_out must be positive when requests > 0")

    # Queue accounting: after a graceful drain every admitted request has
    # been dequeued and handled, and the live gauges have returned to zero.
    enq = counters.get("server.enqueued")
    deq = counters.get("server.dequeued")
    if enq is not None and deq is not None and enq != deq:
        fail(f"{path}: server.enqueued {enq} != server.dequeued {deq} "
             f"after drain")
    for name in SERVER_GAUGES:
        if gauges.get(name) not in (None, 0):
            fail(f"{path}: gauge {name} must be 0 after drain, "
                 f"got {gauges[name]}")
    # Every answered admitted request records exactly one queue wait and
    # one total latency. Admitted requests are the dequeued ones plus the
    # merged waiters, which piggyback on an in-flight compile and never
    # occupy a queue slot.
    lat = hists.get("server.latency_us")
    qwait = hists.get("server.queue_wait_us")
    merged = counters.get("server.merged", 0)
    if lat is not None and qwait is not None:
        if lat.get("count") != qwait.get("count"):
            fail(
                f"{path}: server.latency_us count {lat.get('count')} != "
                f"server.queue_wait_us count {qwait.get('count')}"
            )
        if deq is not None and lat.get("count") != deq + merged:
            fail(
                f"{path}: server.latency_us count {lat.get('count')} != "
                f"server.dequeued {deq} + server.merged {merged}"
            )
        if lat.get("count", 0) < completed:
            fail(
                f"{path}: server.latency_us count {lat.get('count')} < "
                f"server.completed {completed}"
            )
    if not errors:
        print(f"{path}: server.* counter contract: OK")


CACHE_COUNTERS = (
    "cache.hits",
    "cache.misses",
    "cache.insertions",
    "cache.evictions",
)


def check_cache_stats(path, expect_l2_hits=False):
    """The --metrics schema plus the cache.* (and cache.l2.*) contracts."""
    stats = load_stats(path)
    if stats is None:
        return
    counters, gauges, _hists = stats
    # Counters register on their first bump, so a cold run has only
    # cache.misses; hits/insertions/evictions appear once one happened.
    if "cache.misses" not in counters:
        fail(f"{path}: missing required counter 'cache.misses'")
        return
    hits = counters.get("cache.hits", 0)
    misses = counters["cache.misses"]
    insertions = counters.get("cache.insertions", 0)
    evictions = counters.get("cache.evictions", 0)
    if hits + misses <= 0:
        fail(f"{path}: cache was never consulted (hits + misses == 0)")
    # Lifetime invariants: every insertion follows a miss, every eviction
    # follows an insertion.
    if not (evictions <= insertions <= misses):
        fail(
            f"{path}: expected evictions <= insertions <= misses, got "
            f"{evictions} / {insertions} / {misses}"
        )
    if insertions and "cache.bytes" not in gauges:
        fail(f"{path}: missing cache.bytes gauge despite insertions")
    if insertions and not evictions and gauges.get("cache.bytes", 0) <= 0:
        fail(f"{path}: cache.bytes gauge must be positive with live entries")
    # L2 tier contract, active once any cache.l2.* metric is present.
    l2_hits = counters.get("cache.l2.hits", 0)
    l2_misses = counters.get("cache.l2.misses", 0)
    l2_fills = counters.get("cache.l2.fills", 0)
    has_l2 = (any(n.startswith("cache.l2.") for n in counters)
              or any(n.startswith("cache.l2.") for n in gauges))
    if expect_l2_hits and not has_l2:
        fail(f"{path}: --expect-l2-hits but no cache.l2.* metrics present")
    if has_l2:
        # Every L2 probe (hit or miss) follows an L1 miss, and an entry is
        # only published after a compile that itself followed an L1 miss.
        if l2_hits + l2_misses > misses:
            fail(
                f"{path}: L2 probes ({l2_hits} + {l2_misses}) exceed L1 "
                f"misses ({misses}); the L2 is only probed after an L1 miss"
            )
        if l2_fills > misses:
            fail(
                f"{path}: cache.l2.fills ({l2_fills}) > cache.misses "
                f"({misses}); publishes follow compiles, compiles follow "
                f"L1 misses"
            )
        cap = gauges.get("cache.l2.capacity_bytes", 0)
        occ = gauges.get("cache.l2.bytes", 0)
        if cap <= 0:
            fail(f"{path}: cache.l2.capacity_bytes must be positive")
        if occ > cap:
            fail(
                f"{path}: L2 occupancy {occ} exceeds its capacity {cap}"
            )
        if l2_fills and gauges.get("cache.l2.entries", 0) <= 0:
            fail(
                f"{path}: cache.l2.entries is zero despite {l2_fills} "
                f"fills"
            )
        if expect_l2_hits and l2_hits <= 0:
            fail(f"{path}: expected cache.l2.hits > 0, got {l2_hits}")
    if not errors:
        tier = " + cache.l2.*" if has_l2 else ""
        print(f"{path}: cache.*{tier} counter contract: OK")


def check_alloc_stats(path):
    """The --metrics schema plus the alloc.count / alloc.bytes profile."""
    stats = load_stats(path)
    if stats is None:
        return
    counters = stats[0]
    for name in ("alloc.count", "alloc.bytes"):
        if name not in counters:
            fail(f"{path}: missing required counter {name!r}")
    if any(n not in counters for n in ("alloc.count", "alloc.bytes")):
        return
    count = counters["alloc.count"]
    nbytes = counters["alloc.bytes"]
    if count == 0 and nbytes == 0:
        # Sanitizer builds disable the operator new/delete interposer; the
        # counters are present but empty. Nothing further to validate.
        print(f"{path}: alloc.* profile disabled (sanitizer build): skipped")
        return
    if count <= 0:
        fail(f"{path}: alloc.count must be positive, got {count}")
    if nbytes <= 0:
        fail(f"{path}: alloc.bytes must be positive, got {nbytes}")
    if nbytes < count:
        fail(
            f"{path}: alloc.bytes ({nbytes}) < alloc.count ({count}); "
            f"every allocation requests at least one byte"
        )
    if not errors:
        print(f"{path}: alloc.* profile counters: OK")


HIST_VIEWS = ("life", "w1", "w10", "w60")


def load_metrics_doc(path):
    """Parse one StatsReply JSON document, or None after a fail()."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON: {e}")
            return None
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
        return None
    return doc


def check_hist_view(where, view):
    """One rendered histogram view: field types, count == sum of buckets,
    percentile ordering inside [min, max]."""
    for key in ("count", "sum", "min", "max", "mean",
                "p50", "p90", "p95", "p99"):
        if not isinstance(view.get(key), (int, float)):
            fail(f"{where}: '{key}' must be a number")
            return
    buckets = view.get("buckets")
    if not isinstance(buckets, list):
        fail(f"{where}: 'buckets' must be an array")
        return
    total = 0
    prev_low = -1
    for b in buckets:
        if (not isinstance(b, list) or len(b) != 2
                or not all(isinstance(x, int) for x in b)):
            fail(f"{where}: bucket entries must be [low, count] int pairs")
            return
        low, count = b
        if low <= prev_low:
            fail(f"{where}: bucket lows must be strictly increasing")
        if count <= 0:
            fail(f"{where}: bucket counts must be positive (sparse form)")
        prev_low = low
        total += count
    if total != view["count"]:
        fail(f"{where}: count {view['count']} != sum of buckets {total}")
    if view["count"]:
        lo, hi = view["min"], view["max"]
        ps = [view["p50"], view["p90"], view["p95"], view["p99"]]
        if any(q < lo or q > hi for q in ps):
            fail(f"{where}: percentiles must lie within [min, max]")
        if any(a > b for a, b in zip(ps, ps[1:])):
            fail(f"{where}: p50 <= p90 <= p95 <= p99 violated: {ps}")
        if view["min"] > view["max"]:
            fail(f"{where}: min {lo} > max {hi}")


def check_metrics(paths):
    """Metrics documents: schema, per-histogram invariants, and (when more
    than one is given) cross-snapshot monotonicity. Returns the (path, doc)
    pairs that passed the schema check."""
    docs = []
    for path in paths:
        doc = load_metrics_doc(path)
        if doc is None:
            continue
        if doc.get("schema") != 1:
            fail(f"{path}: schema must be 1, got {doc.get('schema')!r}")
        if not isinstance(doc.get("unix_ms"), int) or doc["unix_ms"] <= 0:
            fail(f"{path}: unix_ms must be a positive integer")
        for section in ("counters", "gauges", "histograms"):
            if not isinstance(doc.get(section), dict):
                fail(f"{path}: missing '{section}' object")
        if errors:
            continue
        for name, v in doc["counters"].items():
            if not isinstance(v, int) or v < 0:
                fail(f"{path}: counter {name!r} must be a non-negative int")
        for name, v in doc["gauges"].items():
            if not isinstance(v, int):
                fail(f"{path}: gauge {name!r} must be an int")
        for name, h in doc["histograms"].items():
            if not isinstance(h, dict):
                fail(f"{path}: histogram {name!r} must be an object")
                continue
            for view_name in HIST_VIEWS:
                view = h.get(view_name)
                if not isinstance(view, dict):
                    fail(f"{path}: histogram {name!r} missing {view_name!r}")
                    continue
                check_hist_view(f"{path}: {name}.{view_name}", view)
            life = h.get("life", {})
            for w in ("w1", "w10", "w60"):
                win = h.get(w, {})
                if (isinstance(win.get("count"), int)
                        and isinstance(life.get("count"), int)
                        and win["count"] > life["count"]):
                    fail(
                        f"{path}: {name}.{w} count {win['count']} > "
                        f"lifetime count {life['count']}"
                    )
        docs.append((path, doc))
        print(f"{path}: {len(doc['counters'])} counters, "
              f"{len(doc['gauges'])} gauges, "
              f"{len(doc['histograms'])} histograms: OK")

    # Counters and lifetime histogram counts only ever grow; a later
    # snapshot going backwards means a counter was reset mid-run.
    for (p1, d1), (p2, d2) in zip(docs, docs[1:]):
        for name, v1 in d1["counters"].items():
            v2 = d2["counters"].get(name)
            if isinstance(v2, int) and v2 < v1:
                fail(f"{p2}: counter {name!r} went backwards "
                     f"({v1} -> {v2} vs {p1})")
        for name, h1 in d1["histograms"].items():
            c1 = h1.get("life", {}).get("count")
            c2 = d2["histograms"].get(name, {}).get("life", {}).get("count")
            if isinstance(c1, int) and isinstance(c2, int) and c2 < c1:
                fail(f"{p2}: histogram {name!r} lifetime count went "
                     f"backwards ({c1} -> {c2} vs {p1})")
    return docs


def load_records(path):
    """Validated loadgen --record-out lines, keyed by request id."""
    records = {}
    for lineno, obj in check_jsonl_lines(path):
        where = f"{path}:{lineno}"
        if obj.get("kind") != "client-request":
            fail(f"{where}: kind must be 'client-request'")
            continue
        rid = obj.get("id")
        if not isinstance(rid, int) or rid <= 0:
            fail(f"{where}: 'id' must be a positive integer")
            continue
        if rid in records:
            fail(f"{where}: duplicate request id {rid}")
            continue
        ok = True
        for key in ("conn", "send_ns", "recv_ns", "queue_us"):
            if not isinstance(obj.get(key), int) or obj[key] < 0:
                fail(f"{where}: '{key}' must be a non-negative integer")
                ok = False
        if not isinstance(obj.get("status"), str) or not obj["status"]:
            fail(f"{where}: missing 'status'")
            ok = False
        if obj.get("cached") not in (0, 1):
            fail(f"{where}: 'cached' must be 0 or 1")
            ok = False
        if not isinstance(obj.get("latency_ms"), (int, float)):
            fail(f"{where}: 'latency_ms' must be a number")
            ok = False
        if ok and obj["recv_ns"] < obj["send_ns"]:
            fail(f"{where}: recv_ns precedes send_ns")
            ok = False
        if ok:
            records[rid] = obj
    return records


def check_records(path):
    records = load_records(path)
    if not records:
        fail(f"{path}: no client-request records")
    else:
        print(f"{path}: {len(records)} client-request records: OK")


REQUEST_PHASES = {
    "recv", "admit", "queue-wait", "merged", "cache-probe", "l2-probe",
    "parse",
    "alloc", "lowerCalls", "dce", "allocateModule",
    "emit", "reply",
}


def check_join(spec):
    """records.jsonl:request_log.jsonl — join by request id."""
    try:
        rec_path, log_path = spec.split(":", 1)
    except ValueError:
        fail(f"--join wants RECORDS:REQUEST_LOG, got {spec!r}")
        return
    records = load_records(rec_path)
    joined = 0
    for lineno, obj in check_jsonl_lines(log_path):
        where = f"{log_path}:{lineno}"
        if obj.get("kind") != "request":
            fail(f"{where}: kind must be 'request'")
            continue
        rid = obj.get("id")
        if not isinstance(rid, int):
            fail(f"{where}: 'id' must be an integer")
            continue
        for key in ("arrival_ns", "queue_us", "total_us"):
            if not isinstance(obj.get(key), int) or obj[key] < 0:
                fail(f"{where}: '{key}' must be a non-negative integer")
        phases = obj.get("phases")
        if not isinstance(phases, list) or not phases:
            fail(f"{where}: missing 'phases'")
        else:
            for ph in phases:
                if not isinstance(ph, dict) or ph.get("name") not in \
                        REQUEST_PHASES:
                    fail(f"{where}: unknown phase "
                         f"{ph.get('name') if isinstance(ph, dict) else ph!r}")
                elif (not isinstance(ph.get("rel_us"), int)
                      or not isinstance(ph.get("dur_us"), int)
                      or ph["rel_us"] < 0 or ph["dur_us"] < 0):
                    fail(f"{where}: phase {ph.get('name')!r} needs "
                         f"non-negative rel_us/dur_us")
        rec = records.get(rid)
        if rec is None:
            fail(f"{where}: request id {rid} has no client record")
            continue
        joined += 1
        # Same steady clock on both sides: the request reached the server
        # inside the client's [send, recv] window.
        if not (rec["send_ns"] <= obj.get("arrival_ns", 0) <=
                rec["recv_ns"]):
            fail(
                f"{where}: arrival_ns {obj.get('arrival_ns')} outside the "
                f"client window [{rec['send_ns']}, {rec['recv_ns']}]"
            )
        # Both queue_us fields are the same server-side measurement, one
        # reported in the response and one logged locally.
        if obj.get("queue_us") != rec["queue_us"]:
            fail(
                f"{where}: server queue_us {obj.get('queue_us')} != "
                f"client-reported queue_us {rec['queue_us']}"
            )
    if joined == 0:
        fail(f"{log_path}: no server records joined against {rec_path}")
    elif not errors:
        print(f"{log_path}: {joined} records joined against client view: OK")


def check_p99(spec):
    """metrics.json:records.jsonl:request_log.jsonl — histogram p99 between
    two exact per-request bounds."""
    parts = spec.split(":")
    if len(parts) != 3:
        fail(f"--p99 wants METRICS:RECORDS:REQUEST_LOG, got {spec!r}")
        return
    metrics_path, rec_path, log_path = parts
    doc = load_metrics_doc(metrics_path)
    records = load_records(rec_path)
    if doc is None or not records:
        return
    hist = doc.get("histograms", {}).get("server.latency_us", {}).get("life")
    if not isinstance(hist, dict) or not isinstance(
            hist.get("p99"), (int, float)) or not isinstance(
            hist.get("count"), int):
        fail(f"{metrics_path}: missing server.latency_us lifetime p99/count")
        return
    answered = {obj.get("id"): obj.get("total_us")
                for _, obj in check_jsonl_lines(log_path)
                if obj.get("kind") == "request"}
    if hist["count"] != len(records) or set(answered) != set(records) or \
            not all(isinstance(v, int) for v in answered.values()):
        fail(f"{metrics_path}: the histogram counts {hist['count']} "
             f"requests, {rec_path} {len(records)} and {log_path} "
             f"{len(answered)}; the p99 bracket needs the same requests")
        return
    # Per request the spans nest: the client's latency (send to decoded
    # reply) holds the histogram's sample (first request byte read to last
    # reply byte written), which holds the log's total_us (frame arrival to
    # the worker's answer). So at every rank the sorted log spans,
    # histogram samples and client latencies come in that order, however
    # long a client or server thread waited for a CPU. The histogram
    # reports its nearest-rank p99 (ceil(0.99 n)) as a bucket midpoint.
    rank = math.ceil(0.99 * len(records))
    lower = sorted(v / 1000.0 for v in answered.values())[rank - 1]
    upper = sorted(r["latency_ms"] for r in records.values())[rank - 1]
    hist_p99_ms = hist["p99"] / 1000.0
    if not lower * 0.975 <= hist_p99_ms <= upper * 1.025:
        fail(
            f"{metrics_path}: histogram p99 {hist_p99_ms:.3f} ms lies "
            f"outside [{lower:.3f}, {upper:.3f}] ms, the server's "
            f"arrival-to-answer and the client's p99 (within 2.5%)"
        )
    else:
        print(
            f"{metrics_path}: histogram p99 {hist_p99_ms:.3f} ms lies within "
            f"[{lower:.3f}, {upper:.3f}] ms, the server's arrival-to-answer "
            f"and the client's p99: OK"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace")
    ap.add_argument("--decisions")
    ap.add_argument("--server-stats")
    ap.add_argument("--cache-stats")
    ap.add_argument("--expect-l2-hits", action="store_true")
    ap.add_argument("--alloc-stats")
    ap.add_argument("--metrics", action="append", default=[])
    ap.add_argument("--records")
    ap.add_argument("--join")
    ap.add_argument("--p99")
    args = ap.parse_args()
    if not (args.trace or args.decisions or args.server_stats
            or args.cache_stats or args.alloc_stats or args.metrics
            or args.records or args.join or args.p99):
        ap.error(
            "nothing to check: pass --trace/--decisions/"
            "--server-stats/--cache-stats/--alloc-stats/--metrics/"
            "--records/--join/--p99"
        )
    if args.trace:
        check_trace(args.trace)
    if args.decisions:
        check_decisions(args.decisions)
    if args.server_stats:
        check_server_stats(args.server_stats)
    if args.cache_stats:
        check_cache_stats(args.cache_stats, expect_l2_hits=args.expect_l2_hits)
    if args.alloc_stats:
        check_alloc_stats(args.alloc_stats)
    if args.metrics:
        check_metrics(args.metrics)
    if args.records:
        check_records(args.records)
    if args.join:
        check_join(args.join)
    if args.p99:
        check_p99(args.p99)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
