#!/usr/bin/env python3
"""End-to-end service benchmark: builds the runner from source, runs one
workload in its own process, checks its result row, and prints the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py                      # every workload, default seed
    python3 perfbench/run.py --workload model_bound --repeat 5 --seed 11
    python3 perfbench/run.py --selftest           # the benchmark's own tests

Run it from the root of a checkout. It builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR, default .bench_build, and keeps
its outputs (result rows, span files, journal files) under .bench_out.

With --workload, the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The exit
code is 0 when every correctness check passed, 3 when one failed, and 1 when
the benchmark could not build or run (no result is printed then).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
ROW_SCHEMA = "perfbench.row/1"
ROW_KEYS = {
    "schema", "workload", "seed", "trace", "rounds", "latency_samples",
    "latency_top_percentile", "correct", "attempted", "failed", "error_rate",
    "checks", "metrics", "span_self_ms", "spans_file", "host",
    "cpu_steal_share",
}
HOST_KEYS = {"nproc", "cpu_model", "compiler", "build_type", "build_flags"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(name):
    with open(os.path.join(ROOT, name) if name == "BENCHMARK.json"
              else os.path.join(HERE, name)) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def child_env():
    # Keep compiler and runtime temporary files inside the checkout.
    env = dict(os.environ)
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build(targets):
    """Configures (once) and builds the targets; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service",
                                       "trajectory_service.h")):
        raise BenchError("library sources not found under %s/src"
                         % ROOT)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    bdir = build_dir()
    env = child_env()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target"]
                   + targets, check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_TIMEOUT_S, cwd=ROOT)
    return bdir


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code measured
    where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def validate_row(row, bench, trace):
    """Raises BenchError unless the row matches the runner's row schema and
    carries exactly the metrics BENCHMARK.json names for this mode."""
    if not isinstance(row, dict) or set(row) != ROW_KEYS:
        raise BenchError("row keys %s" % sorted(row) if isinstance(row, dict)
                         else "row is not an object")
    if row["schema"] != ROW_SCHEMA:
        raise BenchError("row schema %r" % row["schema"])
    if set(row["host"]) != HOST_KEYS:
        raise BenchError("host keys %s" % sorted(row["host"]))
    for key in ("attempted", "failed", "rounds", "seed", "trace"):
        if not isinstance(row[key], int) or isinstance(row[key], bool):
            raise BenchError("%s is not a whole number" % key)
    if row["attempted"] < 1:
        raise BenchError("attempted < 1")
    if not isinstance(row["correct"], bool):
        raise BenchError("correct is not a boolean")
    want = expected_metrics(bench, trace)
    got = row["metrics"]
    if [m["name"] for m in want] != list(got):
        raise BenchError("metrics %s, expected %s"
                         % (list(got), [m["name"] for m in want]))
    for m in want:
        value = got[m["name"]]
        if set(value) != {"value", "unit"} or value["unit"] != m["unit"]:
            raise BenchError("metric %s: %r" % (m["name"], value))
        v = value["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            raise BenchError("metric %s is not a finite number" % m["name"])


def contract_line(row):
    return {"correct": row["correct"], "attempted": row["attempted"],
            "failed": row["failed"], "metrics": row["metrics"]}


def run_workload(bdir, bench, name, seed, seconds, trace, deadline_s):
    pins = load_json("pinned_digests.json")
    cmd = [os.path.join(bdir, "perfbench_e2e"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out_dir", OUT_DIR]
    if seed == pins["seed"] and name in pins["prefix_digests"]:
        cmd += ["--expect_prefix_digest", pins["prefix_digests"][name]]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), cwd=ROOT, timeout=deadline_s)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %.0f s" % (name, deadline_s))
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 3) or not lines:
        raise BenchError("%s exited with %d" % (name, proc.returncode))
    try:
        row = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError("unreadable result row: %s" % e)
    validate_row(row, bench, trace)
    return row


def record(row):
    row = dict(row, git_commit=git_commit(), source_digest=source_digest(),
               unix_time=time.time())
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    with open(os.path.join(ROOT, OUT_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps(row) + "\n")


def print_row(row):
    print("%s seed=%d trace=%d rounds=%d latency_samples=%d correct=%s "
          "error_rate=%g (%d of %d) cpu_steal=%.1f%%"
          % (row["workload"], row["seed"], row["trace"], row["rounds"],
             row["latency_samples"], row["correct"], row["error_rate"],
             row["failed"], row["attempted"], 100 * row["cpu_steal_share"]))
    for name, m in row["metrics"].items():
        print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
    for c in row["checks"]:
        if not c["ok"]:
            print("  CHECK FAILED %s: %s" % (c["name"], c["detail"]))


def spread(values):
    """Interquartile distance as a share of the median (the stability
    figure BENCHMARK.json bounds are judged against)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def selftest():
    bdir = build(["perfbench_support_test"])
    subprocess.run([os.path.join(bdir, "perfbench_support_test")], check=True,
                   cwd=ROOT, env=child_env(), timeout=RUN_TIMEOUT_S)
    subprocess.run([sys.executable, "-m", "unittest", "-q", "test_run"],
                   check=True, cwd=HERE, timeout=RUN_TIMEOUT_S)


def main(argv):
    bench = load_json("BENCHMARK.json")
    pins = load_json("pinned_digests.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=pins["seed"])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs on consecutive seeds; prints the median "
                             "and spread of every metric")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    start = time.monotonic()
    try:
        if args.selftest:
            selftest()
            return 0
        names = [w["name"] for w in bench["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError("unknown workload %r (known: %s)"
                             % (args.workload, ", ".join(names)))
        bdir = build(["perfbench_e2e"])
        deadline = max(30.0, RUN_TIMEOUT_S - (time.monotonic() - start)) \
            if args.workload is not None and args.repeat == 1 \
            else RUN_TIMEOUT_S
        rows = []
        for name in [args.workload] if args.workload else names:
            for i in range(args.repeat):
                row = run_workload(bdir, bench, name, args.seed + i,
                                   args.seconds, args.trace, deadline)
                record(row)
                rows.append(row)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log("perfbench: %s" % e)
        return 1

    for row in rows:
        print_row(row)
    if args.repeat > 1:
        for name in sorted({r["workload"] for r in rows}):
            mine = [r for r in rows if r["workload"] == name]
            print("%s over %d seeds:" % (name, len(mine)))
            for metric in mine[0]["metrics"]:
                values = [r["metrics"][metric]["value"] for r in mine]
                print("  %-40s median %14.6g  spread %6.2f%%"
                      % (metric, statistics.median(values),
                         100 * spread(values)))
    all_correct = all(r["correct"] for r in rows)
    if args.workload is not None and args.repeat == 1:
        print(json.dumps(contract_line(rows[0])))
    return 0 if all_correct else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
