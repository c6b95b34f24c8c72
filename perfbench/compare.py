#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them against the bounds in
BENCHMARK.json.

    # 10 runs per workload, seeds 1..10, results under DIR/<workload>/
    python3 perfbench/compare.py collect --out DIR [--runs 10]
        [--first-seed 1] [--workloads ysb_ingest,...]
    # medians and quartiles of one set, or whether two sets agree
    python3 perfbench/compare.py report DIR_A [DIR_B]

`collect` makes untraced runs of BENCHMARK.json's run_seconds. For each
workload and end-to-end metric, `report` prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, i.e. the distance
between the quartiles as a share of the median. A set is steady when every
spread is within the metric's bound. Two sets agree when both are steady
and, for every metric, their medians differ by no more than the bound (as a
share of A's median), in either direction. Exits 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ysb_ingest", "dashboard_fanout", "sessions_replay")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    seconds = load_spec()["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    for w in workloads:
        os.makedirs(os.path.join(args.out, w), exist_ok=True)
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", "0"]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT, check=False)
            if r.returncode != 0:
                print(f"{w} seed {seed}: run failed ({r.returncode})",
                      file=sys.stderr)
                return 1
            last = r.stdout.rstrip("\n").split("\n")[-1]
            with open(os.path.join(args.out, w, f"seed{seed}.json"),
                      "w") as f:
                f.write(last + "\n")
            res = json.loads(last)
            print(f"{w} seed {seed}: correct={res['correct']} " +
                  " ".join(f"{k}={v['value']:.6g}"
                           for k, v in res["metrics"].items()), flush=True)
    return 0


def load_set(directory):
    """{workload: [result, ...]} from DIR/<workload>/*.json."""
    out = {}
    for w in sorted(os.listdir(directory)):
        d = os.path.join(directory, w)
        if not os.path.isdir(d):
            continue
        runs = []
        for name in sorted(os.listdir(d)):
            if name.endswith(".json"):
                with open(os.path.join(d, name)) as f:
                    runs.append(json.load(f))
        if len(runs) >= 2:  # quartiles need at least two runs
            out[w] = runs
    return out


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def report(args):
    spec = load_spec()
    metrics = spec["end_to_end"]
    a = load_set(args.a)
    b = load_set(args.b) if args.b else None
    ok = True
    for w, runs_a in a.items():
        bad = sum(1 for r in runs_a if not r["correct"])
        print(f"\n{w}: {len(runs_a)} runs, {bad} incorrect")
        ok = ok and bad == 0
        if b is not None and w in b:
            bad_b = sum(1 for r in b[w] if not r["correct"])
            print(f"  set B: {len(b[w])} runs, {bad_b} incorrect")
            ok = ok and bad_b == 0
        hdr = f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} " \
              f"{'spread':>7} {'bound':>6}"
        if b is not None:
            hdr += f" {'median B':>12} {'diff':>7}"
        print(hdr)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in runs_a]
            med, q1, q3, spread = summarize(va)
            steady = spread <= bound
            line = (f"  {name:<16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{spread:7.3f} {bound:6.3f}")
            verdict = "" if steady else "  SPREAD > BOUND"
            ok = ok and steady
            if b is not None and w in b:
                vb = [r["metrics"][name]["value"] for r in b[w]]
                med_b, _, _, spread_b = summarize(vb)
                diff = (med_b - med) / med
                line += f" {med_b:12.6g} {diff:+7.3f}"
                if abs(diff) > bound:
                    verdict += "  DIFF > BOUND"
                    ok = False
                if spread_b > bound:
                    verdict += "  B SPREAD > BOUND"
                    ok = False
            print(line + verdict)
    print("\nverdict:", "agree within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workloads", default="")
    r = sub.add_parser("report")
    r.add_argument("a")
    r.add_argument("b", nargs="?")
    args = p.parse_args()
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
