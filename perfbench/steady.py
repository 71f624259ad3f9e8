"""Steadiness check: repeat the benchmark over seeds and measure its spread.

    python3 perfbench/steady.py --seeds 1-10 [--workloads mg-loop,ball-sweep]

Runs ``run.py`` once per (seed, workload), one process at a time, with the
workload order rotated from one seed to the next.  For every end-to-end
metric it prints the median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to a third of the metric's bound from BENCHMARK.json.  It also checks
that every run passed its output checks, and that counts and digests of
seed-free operations are identical across all runs; a seeded operation must
repeat its counts and digests when a seed repeats.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med if med else 0.0


def drift(runs):
    """Problems: counts or digests that differ where they must repeat."""
    seen = {}
    problems = []
    for detail, _ in runs:
        for op, rec in detail["ops"].items():
            key = (op, detail["seed"] if rec["seeded"] else None)
            got = (rec["counts"], rec["digests"])
            if seen.setdefault(key, got) != got:
                problems.append("%s seed %s: %r != %r"
                                % (op, detail["seed"], got, seen[key]))
    return problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            detail, result = run_once(w, seed, seconds)
            runs[w].append((detail, result))
            print("%-12s seed %-3d %s ref_s %.5f per_ref %s" % (
                w, seed, json.dumps(
                    {m: v["value"] for m, v in result["metrics"].items()}),
                detail["ref_s"], json.dumps(detail["per_ref"])), flush=True)

    steady = True
    for w, rs in runs.items():
        failed = sum(r["failed"] for _, r in rs)
        problems = drift(rs)
        steady &= not failed and not problems
        print("%s: %d runs, %d failed ops, %d count/digest drifts"
              % (w, len(rs), failed, len(problems)))
        for line in problems[:5]:
            print("  drift: " + line)
        if len(rs) < 2:
            continue
        for name, bound in bounds.items():
            med, iqr = spread([r["metrics"][name]["value"] for _, r in rs])
            ok = name == "setup_s" or iqr <= bound / 3.0
            steady &= ok
            print("  %-12s median %-12.6g spread %.4f  third of bound %.4f %s"
                  % (name, med, iqr, bound / 3.0, "" if ok else "TOO WIDE"))
        for name, key in (("walls", "walls"), ("raw setup", "setup_samples")):
            med, iqr = spread([statistics.median(d[key]) for d, _ in rs])
            print("  %-12s median %-12.6g spread %.4f  (raw seconds, no gate)"
                  % (name, med, iqr))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
