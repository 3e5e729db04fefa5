#!/usr/bin/env python3
"""The lplow benchmark: builds the benchmark binary from this checkout,
runs one workload, checks its outputs, and prints one JSON result line last.

    python3 perfbench/run.py --slo-ms SPEC --workload W --seed N \
        --seconds S --trace 0|1

W is models-at-scale or replay-mix. SPEC fixes the latency limit behind
slo_share per workload, e.g. "models-at-scale=7500,replay-mix=50". With
--trace 0 the result holds every end-to-end metric of BENCHMARK.json; with
--trace 1 the run records spans and the result holds every per-layer
metric, folded from the trace by trace_summary.py. The build goes to
.bench_build/perfbench.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # Leave nothing behind in perfbench/.
sys.path.insert(0, HERE)
import trace_summary  # noqa: E402


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "trace.h")):
        fail("no lplow sources next to perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slo-ms", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %s" % args.workload)
    slo = dict(item.split("=") for item in args.slo_ms.split(","))
    if args.workload not in slo:
        fail("--slo-ms has no limit for %s" % args.workload)

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    out_dir = os.path.join(BUILD, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-%d-%d" % (args.workload, args.seed,
                                               args.trace))
    report_path, trace_path = stem + ".report.json", stem + ".trace.json"
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--slo-ms", slo[args.workload],
           "--report", report_path]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    t0 = time.monotonic()
    try:
        subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S,
                       stdout=sys.stdout)
    except (OSError, subprocess.SubprocessError) as e:
        fail("benchmark binary failed: %s" % e)
    sys.stdout.flush()
    with open(report_path) as f:
        report = json.load(f)

    if args.trace:
        events = trace_summary.load_events(trace_path)
        table, values, checks, passes = trace_summary.summarise(events, report)
        trace_summary.print_table(table, passes, sys.stdout)
        for name, value in checks.items():
            print("check: %s = %.4f" % (name, value))
        wanted = spec["per_layer"]
    else:
        values = {k: v["value"] for k, v in report["metrics"].items()}
        wanted = spec["end_to_end"]
        for m in wanted:
            got = report["metrics"].get(m["name"], {}).get("unit", m["unit"])
            if got != m["unit"]:
                fail("%s reported in %s, not %s" % (m["name"], got, m["unit"]))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("metrics missing from the run: %s" % ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print("%-32s %.9g %s" % (name, m["value"], m["unit"]))
    print("wall: %.1f s" % (time.monotonic() - t0))
    correct = report["failed"] == 0 and report["self_test_ok"]
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
