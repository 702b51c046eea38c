"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py --workload direct-256 --seeds 0-9
    python3 perfbench/spread.py --workload all --seeds 0-9 --label "<commit>: note"

For each workload this runs perfbench/run.py once per seed and prints, per
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median next to the metric's bound.  --label appends
the medians and quartiles to perfbench/trajectory.json as one point.
--record writes each run's per-instance quality values into
perfbench/reference.json, which the worker compares against on later runs
with those seeds; it belongs to the commit that defines the references.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"error: {workload} seed {seed} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace0.json")) as fh:
        record = json.load(fh)
    record["wall_s"] = time.monotonic() - start
    return result, record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--label")
    args = ap.parse_args()

    ref_path = os.path.join(HERE, "reference.json")
    traj_path = os.path.join(HERE, "trajectory.json")
    reference = {}
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            reference = json.load(fh)
    point = {"label": args.label, "seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in names if args.workload == "all" else [args.workload]:
        runs = []
        for seed in parse_seeds(args.seeds):
            result, record = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed: {record['errors']}")
            runs.append((seed, result, record))
            if args.record:
                reference.setdefault(workload, {})[str(seed)] = record["quality"]
        summary = {}
        for spec in bench["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for _, r, _ in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[spec["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"{workload} {spec['name']}: median {med:.6g} {spec['unit']} "
                  f"[{q1:.6g}, {q3:.6g}] spread {spread:.4f} (bound {spec['bound']}, "
                  f"third {spec['bound'] / 3:.4f})")
        named = {k: statistics.median(rec["named"][k] for _, _, rec in runs)
                 for k in runs[0][2]["named"]}
        named["run_wall_s"] = statistics.median(rec["wall_s"] for _, _, rec in runs)
        for k, v in named.items():
            print(f"{workload} {k}: median {v:.6g}")
        point["workloads"][workload] = {"end_to_end": summary, "named_medians": named,
                                        "environment": runs[0][2]["environment"]}
        sys.stdout.flush()
    if args.record:
        with open(ref_path, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.label:
        trajectory = []
        if os.path.exists(traj_path):
            with open(traj_path) as fh:
                trajectory = json.load(fh)
        trajectory.append(point)
        with open(traj_path, "w") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
