#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric as
a median and quartiles.

    python3 bench/steady.py --seeds 1-10 [--workloads fit_csv,resample]
        [--seconds S] [--record LABEL]

Seeds run in the outer loop and workloads in the inner one, so slow drift of
the machine shows up as spread rather than as a difference between
workloads.  The spread of a metric is the distance between its first and
third quartile (`statistics.quantiles(values, n=4)`) as a share of its
median; it is compared with the metric's bound in BENCHMARK.json.  With
`--record`, the summary, the per-seed values and a record of the machine are
appended to bench/baseline.json, the benchmark's trajectory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace=0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values),
            "min": min(values), "max": max(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--record", metavar="LABEL", help="append the results to bench/baseline.json")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    correct = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            out = run_once(w, seed, args.seconds)
            correct[w].append(out["correct"] and out["failed"] == 0)
            for m in bounds:
                values[w][m].append(out["metrics"][m]["value"])
            print(f"seed {seed} {w}: " + ", ".join(f"{m}={values[w][m][-1]:.5g}" for m in bounds),
                  flush=True)

    summary = {}
    worst = 0.0
    for w in workloads:
        summary[w] = {m: summarize(values[w][m]) for m in bounds}
        print(f"\n{w}: {sum(correct[w])}/{len(correct[w])} runs correct")
        for m, s in summary[w].items():
            share = s["spread"] / bounds[m]
            worst = max(worst, share)
            flag = "ok" if share <= 1 / 3 else ("within bound" if share <= 1 else "TOO WIDE")
            print(f"  {m:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f} (bound {bounds[m]}, {flag})")
    print(f"\nworst spread / bound: {worst:.3f}")

    if args.record:
        env = json.loads(next(
            line.split(" ", 1)[1] for line in subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workloads[0], "--seed", "0",
                 "--seconds", "0", "--trace", "0", "--smoke"],
                cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
            if line.startswith("environment ")))
        env["cpu_model"] = cpu_model()
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        entry = {
            "label": args.record,
            "date": datetime.date.today().isoformat(),
            "environment": env,
            "run_seconds": args.seconds,
            "seeds": args.seeds,
            "command": spec["command"] + ["--workload", "<name>", "--seed", "<seed>",
                                          "--seconds", str(args.seconds), "--trace", "0"],
            "workloads": {w: {"why": why.get(w), "all_correct": all(correct[w]),
                              "metrics": summary[w], "values": values[w]} for w in workloads},
        }
        trajectory = []
        if os.path.exists(BASELINE):
            with open(BASELINE) as fh:
                trajectory = json.load(fh)
        trajectory.append(entry)
        with open(BASELINE, "w") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")
        print(f"recorded as {args.record!r} in {os.path.relpath(BASELINE, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
