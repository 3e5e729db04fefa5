#!/usr/bin/env python3
"""Folds a traced perfbench run into per-span and per-layer figures.

Usage: trace_summary.py TRACE.json REPORT.json

TRACE.json is the Chrome trace_event JSON the traced run wrote (one "X"
event per span; args carry span_id / parent_span_id and the span's own
args). REPORT.json is the run's report: it names the job spans behind
trace.covered_share and carries the counters no span holds (model bytes,
walls for trace.overhead_share, ...).

Prints a per-span-name table (count, total and self seconds, where self is
the span's duration minus the part of it its child spans cover), then the
per-layer metrics as one JSON object. Time totals are per traced pass.
"""

import json
import sys
from collections import defaultdict

# wire::ProblemKind value -> workload::ProblemKindName.
KIND_NAMES = {
    1: "linear_program",
    2: "linear_svm",
    3: "min_enclosing_ball",
    4: "chebyshev_center",
    5: "linf_regression",
    6: "enclosing_annulus",
}
MODELS = ("coordinator", "mpc", "streaming", "deterministic")

# Counters the run reports directly; 0 when the workload has no such layer.
REPORTED = (
    "engine.iterations", "engine.ok_iter_share", "core.sample_KB",
    "models.cpu_util", "trace.overhead_share",
) + tuple("models.%s.KB" % m for m in MODELS)


def percentile(values, q):
    """Nearest rank over raw samples, as the C++ binary computes it."""
    if not values:
        return 0.0
    values = sorted(values)
    permille = int(round(q * 1000))
    rank = min(max(1, (permille * len(values) + 999) // 1000), len(values))
    return values[rank - 1]


def covered_us(event, children):
    """Length of the union of `children` clipped to `event`'s interval."""
    lo, hi = event["ts"], event["ts"] + event["dur"]
    spans = sorted((max(lo, c["ts"]), min(hi, c["ts"] + c["dur"]))
                   for c in children)
    total, cur_lo, cur_hi = 0, None, None
    for a, b in spans:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarise(events, report):
    counters = report["metrics"]
    passes = max(1.0, counters.get("passes_traced", {}).get("value", 1.0))
    by_id = {e["args"]["span_id"]: e for e in events}
    children = defaultdict(list)
    for e in events:
        children[e["args"]["parent_span_id"]].append(e)

    table = defaultdict(lambda: [0, 0, 0])  # count, total_us, self_us
    by_name = defaultdict(list)
    for e in events:
        kids = children.get(e["args"]["span_id"], [])
        row = table[e["name"]]
        row[0] += 1
        row[1] += e["dur"]
        row[2] += e["dur"] - covered_us(e, kids)
        by_name[e["name"]].append(e)

    def total_s(name):
        return table[name][1] * 1e-6 / passes if name in table else 0.0

    def durations(name):
        return [e["dur"] for e in by_name.get(name, [])]

    m = {}
    m["engine.scan_s"] = total_s("engine.violator_scan")
    m["engine.basis_s"] = total_s("engine.basis_solve")
    m["engine.iter_self_s"] = (table["engine.iteration"][2] * 1e-6 / passes
                               if "engine.iteration" in table else 0.0)
    scan_bytes = counters.get("scan_bytes_computed", {}).get("value", 0.0)
    m["engine.scan_GBps_computed"] = (scan_bytes / m["engine.scan_s"] / 1e9
                                      if m["engine.scan_s"] > 0 else 0.0)
    for model in MODELS:
        m["models.%s.wall_s" % model] = total_s("models." + model)

    # Basis solves per problem kind: the kind rides on the parent
    # service.execute span's "kind" arg.
    solve_us = defaultdict(list)
    for e in by_name.get("daemon.solve", []):
        parent = by_id.get(e["args"]["parent_span_id"], {})
        solve_us[parent.get("args", {}).get("kind", 0)].append(e["dur"])
    for kind, name in KIND_NAMES.items():
        m["solve.%s.s" % name] = sum(solve_us[kind]) * 1e-6 / passes
        m["solve.%s.p99_us" % name] = float(percentile(solve_us[kind], 0.99))

    m["wire.decode_s"] = total_s("daemon.decode")
    m["wire.encode_s"] = total_s("daemon.encode")
    m["service.queue_wait_p99_ms"] = percentile(
        durations("service.queue_wait"), 0.99) * 1e-3
    m["service.execute_s"] = total_s("service.execute")
    # Execute time per shard under job-id routing: the span's "route" arg
    # (replay-mix runs one real shard).
    shard_us = defaultdict(int)
    for e in by_name.get("service.execute", []):
        shard_us[e["args"].get("route", 0)] += e["dur"]
    shards = counters.get("service.route_shards", {}).get("value", 0.0)
    m["service.shard_skew"] = (max(shard_us.values()) * shards /
                               sum(shard_us.values())
                               if shard_us and shards else 0.0)

    covered = dur = 0
    for name in report.get("job_spans", []):
        for e in by_name.get(name, []):
            covered += covered_us(e, children.get(e["args"]["span_id"], []))
            dur += e["dur"]
    m["trace.covered_share"] = covered / dur if dur else 0.0
    for name in REPORTED:
        m[name] = counters.get(name, {}).get("value", 0.0)

    # Validity checks printed next to the table: how much of the job wall
    # the library's own spans explain on each workload.
    checks = {}
    model_wall = sum(m["models.%s.wall_s" % k] for k in MODELS)
    if model_wall > 0:
        checks["engine.run / models.* wall"] = (total_s("engine.run") /
                                                model_wall)
    if m["service.execute_s"] > 0:
        solve_s = sum(m["solve.%s.s" % k] for k in KIND_NAMES.values())
        checks["daemon.solve / service.execute"] = (solve_s /
                                                    m["service.execute_s"])
    return table, m, checks, passes


def load_events(path):
    with open(path) as f:
        doc = json.load(f)
    return [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]


def print_table(table, passes, out):
    out.write("%-28s %9s %12s %12s\n" % ("span (per pass)", "count",
                                         "total_s", "self_s"))
    for name, (count, total, self_us) in sorted(
            table.items(), key=lambda kv: -kv[1][1]):
        out.write("%-28s %9.1f %12.6f %12.6f\n" % (
            name, count / passes, total * 1e-6 / passes,
            self_us * 1e-6 / passes))


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[2]) as f:
        report = json.load(f)
    table, metrics, checks, passes = summarise(load_events(argv[1]), report)
    print_table(table, passes, sys.stdout)
    for name, value in checks.items():
        print("check: %s = %.4f" % (name, value))
    print(json.dumps(metrics, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
