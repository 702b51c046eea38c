"""sparsect benchmark: closed-loop workloads, each in its own fresh process.

    python3 perfbench/run.py --workload iterative-64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30          # every workload

Run it from the repository root.  For each workload this starts
perfbench/worker.py with BLAS and OpenMP limited to one thread: first
SETUP_REPS - 1 processes that only set up, then one that sets up and
measures, so that setup_s is the median of SETUP_REPS cold starts.  The
worker's report is passed through; the last line of stdout is one JSON object
with "correct", "attempted", "failed" and "metrics": the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  Any
error exits with a non-zero code and prints no result.
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
SETUP_REPS = 3
WORKLOAD_TIMEOUT_S = 175   # all processes of one workload; a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_worker(args, workload, setup_only, deadline):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--profile", args.profile]
    if setup_only:
        cmd.append("--setup-only")
    env["PERFBENCH_T0"] = repr(time.time())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:   # run() kills and reaps the child
        raise BenchError(f"{workload}: not done within {WORKLOAD_TIMEOUT_S} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def run_workload(args, workload):
    """Returns (report lines, worker record with the median setup_s)."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPS - 1):
            setups.append(run_worker(args, workload, True, deadline)[1]["setup_s"])
    lines, record = run_worker(args, workload, False, deadline)
    if not args.trace:
        setups.append(record["end_to_end"]["setup_s"])
        record["end_to_end"]["setup_s"] = statistics.median(setups)
        lines.insert(0, f"{workload} setup_s {statistics.median(setups):.6g} s "
                     f"(median of {len(setups)} processes: "
                     + ", ".join(f"{s:.4g}" for s in setups) + ")")
    return lines, record


def metrics_of(record, specs, trace):
    values = record["per_layer"] if trace else record["end_to_end"]
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise BenchError(f"{record['workload']}: worker did not report {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", default="full",
                    help="'full' (the benchmark) or 'tiny' (the smoke test's sizes)")
    args = ap.parse_args(argv)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    results = {}
    for workload in names if args.workload == "all" else [args.workload]:
        lines, record = run_workload(args, workload)
        print("\n".join(lines), flush=True)
        results[workload] = (record, metrics_of(record, specs, args.trace))

    if args.workload == "all":
        metrics = {f"{w}/{k}": v for w, (_, m) in results.items() for k, v in m.items()}
    else:
        metrics = results[args.workload][1]
    attempted = sum(r["attempted"] for r, _ in results.values())
    failed = sum(r["failed"] for r, _ in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.exit(f"error: {exc}")
