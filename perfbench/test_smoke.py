"""Smoke test of the benchmark at tiny sizes (about half a minute).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAMED = {
    "iterative-64": {"setup_s": "s", "ops_per_s": "1/s", "tv_solve_s.p50": "s",
                     "fista_solve_s.p50": "s", "tv_snr_db": "dB", "fista_snr_db": "dB",
                     "peak_rss_mb": "MB", "failed_frac": "ratio"},
    "direct-256": {"setup_s": "s", "ops_per_s": "1/s", "forward_s.p50": "s",
                   "fbp_s.p50": "s", "deconv_s.p50": "s", "fbp_snr_db": "dB",
                   "deconv_agree_db": "dB", "reproj_snr_db": "dB", "peak_rss_mb": "MB",
                   "failed_frac": "ratio"},
    "train-64": {"setup_s": "s", "train_steps_per_s": "1/s", "train_step_s": "s",
                 "infer_s.p50": "s", "cnn_snr_db": "dB",
                 "peak_rss_mb": "MB", "failed_frac": "ratio"},
}
LINE = re.compile(r"^(\S+) (\S+) (\S+) (\S+)")


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "5", "--seconds", "0.5",
                           "--profile", "tiny", *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def printed(stdout):
    """{(workload, metric): (value, unit)} from the report lines."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        m = LINE.match(line)
        if m and m.group(1) in NAMED and m.group(2) in NAMED[m.group(1)]:
            out[(m.group(1), m.group(2))] = (float(m.group(3)), m.group(4))
    return out


@pytest.fixture(scope="module")
def two_runs():
    return [run() for _ in range(2)]


def test_every_named_metric_printed_with_unit(two_runs):
    proc = two_runs[0]
    assert proc.returncode == 0, proc.stderr
    got = printed(proc.stdout)
    for workload, units in NAMED.items():
        for name, unit in units.items():
            assert (workload, name) in got, f"{workload} {name} not printed"
            assert got[(workload, name)][1] == unit
            if name == "failed_frac":
                assert got[(workload, name)][0] == 0.0


def test_result_line_has_every_end_to_end_metric(two_runs):
    result = json.loads(two_runs[0].stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in NAMED:
        for spec in bench()["end_to_end"]:
            metric = result["metrics"][f"{workload}/{spec['name']}"]
            assert metric["unit"] == spec["unit"] and metric["value"] > 0


def test_quality_identical_between_runs(two_runs):
    a, b = (printed(p.stdout) for p in two_runs)
    db = [k for k in a if k[1].endswith("_db")]
    assert len(db) == 6
    assert all(a[k] == b[k] for k in db)


def test_traced_run_reports_every_per_layer_metric():
    proc = run("--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    for workload in NAMED:
        for spec in bench()["per_layer"]:
            assert result["metrics"][f"{workload}/{spec['name']}"]["unit"] == spec["unit"]
    metrics = result["metrics"]
    assert metrics["iterative-64/sparse.normal_op_per_tv_solve"]["value"] > 0
    assert metrics["train-64/autodiff.conv2d.gflop_per_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("--workload", "iterative-64", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
