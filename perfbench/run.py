#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--corrupt none|drop|alter] [--rate <records/s>]
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); traces and checkpoint scratch directories
go under it too. The program reports every metric it measured; this script
prints the ones of the mode's section of BENCHMARK.json (end_to_end, or
per_layer with --trace 1) with their units, then, as the last line of
standard output, the result JSON: {"correct", "attempted", "failed",
"metrics"}. A failed build, a crash, a timeout or a metric name unknown to
BENCHMARK.json exits non-zero without printing a result.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ysb_ingest", "dashboard_fanout", "sessions_replay")
# A run measures for --seconds, then tears down; this bounds the whole run.
RUN_TIMEOUT_S = 170
BUILD_JOBS = min(4, os.cpu_count() or 1)


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(BUILD_JOBS),
                  "--target", *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           cwd=ROOT, check=False)
        if r.returncode != 0:
            log(f"build step failed ({r.returncode}): {' '.join(cmd)}")
            return False
    return True


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def make_result(raw, trace):
    """Turns the program's {"attempted", "failed", "metrics"} line into the
    result: the metrics of the mode's section of BENCHMARK.json, in its
    order and with its units, plus the correctness verdict. Prints the
    human-readable table. Returns (result, None) or (None, error)."""
    if set(raw) != {"attempted", "failed", "metrics"}:
        return None, f"program output keys {sorted(raw)}"
    for k in ("attempted", "failed"):
        if not isinstance(raw[k], int) or raw[k] < 0:
            return None, f"{k} is not a whole number"
    spec = load_spec()
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(raw["metrics"]) - known)
    if unknown:
        return None, f"metrics not in BENCHMARK.json: {unknown}"
    complete = True
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        v = raw["metrics"].get(name, 0)
        note = ""
        if name not in raw["metrics"]:
            # Every end-to-end metric is measured by every workload; a
            # per-layer one only by the workloads that use the layer.
            note = "  (layer not exercised)" if trace else "  (NOT MEASURED)"
            complete = complete and trace
        elif not isinstance(v, (int, float)) or not math.isfinite(v):
            note, v, complete = f"  (NOT MEASURED: {v})", 0, False
        metrics[name] = {"value": v, "unit": unit}
        print(f"{name:<36} {v:16.6f} {unit:<6}{note}")
    attempted, failed = raw["attempted"], raw["failed"]
    correct = complete and failed == 0 and attempted > 0
    print(f"{'error_rate':<36} {failed / max(attempted, 1):16.6f} "
          f"{'ratio':<6} (failed {failed} of {attempted} attempted)")
    print("verdict:", "CORRECT" if correct else "INCORRECT")
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}, None


def run_workload(args):
    if not build(["streamline_perfbench"]):
        return 1
    out = build_dir()
    cmd = [os.path.join(out, "streamline_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corrupt", args.corrupt, "--rate", str(args.rate),
           "--trace-dir", os.path.join(out, "traces"),
           "--work-dir", os.path.join(out, "work")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if r.returncode != 0:
        print(lines[-1])
        log(f"benchmark exited with {r.returncode}")
        return 1
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        log("last line is not a JSON result")
        return 1
    result, err = make_result(raw, args.trace != 0)
    if err is not None:
        log(f"result rejected: {err}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


def self_test():
    """Unit tests of the percentile helper, span self-time and reference
    checkers, then deliberately corrupted runs that must be caught."""
    if not build(["streamline_perfbench", "perfbench_test"]):
        return 1
    out = build_dir()
    ok = subprocess.run([os.path.join(out, "perfbench_test")],
                        check=False).returncode == 0
    for workload in WORKLOADS:
        for corrupt in ("none", "drop", "alter"):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", "1", "--seconds", "1", "--trace",
                   "0", "--corrupt", corrupt]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT, check=False)
            if r.returncode != 0:
                log(f"{workload} --corrupt {corrupt}: run failed")
                ok = False
                continue
            res = json.loads(r.stdout.rstrip("\n").split("\n")[-1])
            rate = res["failed"] / res["attempted"]
            caught = not res["correct"] and res["failed"] > 0
            good = caught if corrupt != "none" else res["correct"]
            ok = ok and good
            log(f"{workload} --corrupt {corrupt}: correct={res['correct']} "
                f"error_rate={rate:.3g} -> {'ok' if good else 'FAIL'}")
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", choices=("none", "drop", "alter"),
                   default="none")
    p.add_argument("--rate", type=float, default=0,
                   help="dashboard_fanout input rate (records/s)")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    os.chdir(ROOT)
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
