#!/usr/bin/env python3
"""Steadiness report: repeats a workload over several seeds and reports,
for every metric, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median), flagging any metric whose
spread exceeds its bound in BENCHMARK.json instead of quoting it.

    python3 perfbench/steady.py --workload grid-small --seeds 1-10
    python3 perfbench/steady.py --workload all --seeds 11-20 \
        --save .bench_out/set2.json --baseline .bench_out/set1.json

With --baseline (a file written by --save), it also reports how far each
median moved from the baseline's, in the metric's worse direction, against
the same bound.  Exits 1 when a spread (other than setup_s's) or a median
shift exceeds its bound, or when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print(proc.stdout)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the raw values here (JSON)")
    parser.add_argument("--baseline", help="compare medians with a --save file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    baseline = {}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)

    raw = {}
    bad = False
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
                bad = True
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        print(f"== {workload} ({len(parse_seeds(args.seeds))} runs)")
        print(f"{'metric':30} {'median':>13} {'q1':>13} {'q3':>13} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            vals = values[m["name"]]
            med, q1, q3, spread = summarize(vals)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                if spread > bound and m["name"] != "setup_s":
                    verdict = "NOISY: spread exceeds bound, do not quote"
                    bad = True
                elif spread > bound:
                    verdict = "noisy (setup_s spread is not gated)"
                elif spread > bound / 3:
                    verdict = "spread above a third of the bound"
                base = baseline.get(workload, {}).get(m["name"])
                if base:
                    ref = statistics.median(base)
                    worse = (med - ref) / ref if m["better"] == "lower" \
                        else (ref - med) / ref
                    verdict += f" shift {worse:+.3f}"
                    if worse > bound:
                        verdict += " REGRESSED beyond bound"
                        bad = True
            print(f"{m['name']:30} {med:13.6g} {q1:13.6g} {q3:13.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}  "
                  f"{verdict}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump(raw, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
