"""One benchmark workload, run in a fresh process started by run.py.

Usage (run.py passes these; it also sets the thread variables and
PERFBENCH_T0, the wall-clock time at which it started this process):

    python3 perfbench/worker.py --workload iterative-64 --seed 3 --seconds 30 \
        --trace 0 [--profile full] [--setup-only]

The process imports sparsect from the checkout's `src/`, builds its inputs
from the seed, warms every layer once on a 16x16 geometry that no timed call
uses, and then runs a closed loop with one caller: the next call starts only
after the previous one returned and its output was checked.  Checks and input
generation run outside the timed intervals.  The last line of stdout is one
JSON record with every measurement; the lines above it are for people.

With --trace 0 the loop runs until the timed calls have used --seconds (and
at least until the quality pool is done).  With --trace 1 the pool is run
twice, untraced and then traced, so per-layer counts are for a fixed amount
of work; the whole process after import is traced except the untraced pass.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

T0 = float(os.environ.get("PERFBENCH_T0", time.time()))
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sparsect  # noqa: E402
from sparsect import fbp, net, phantom, pipeline, projector, sparse  # noqa: E402
from sparsect.numerics import Rng  # noqa: E402

from run import THREAD_VARS  # noqa: E402
from tracer import Tracer  # noqa: E402

if os.path.dirname(os.path.abspath(sparsect.__file__)) != os.path.join(SRC, "sparsect"):
    sys.exit(f"error: sparsect imported from {sparsect.__file__}, not from {SRC}")

# Sizes per profile.  "full" is the benchmark; "tiny" exists for the smoke
# test.  Floors are per-instance quality minima in dB, set well below every
# value recorded at the commit that defined the benchmark (see README.md).
PROFILES = {
    "full": {
        "iter_side": 64, "iter_views": 90, "factor": 7, "iter_pool": 4,
        "tv": dict(lam=3e-3, rho=0.1, max_iters=50, cg_iters=15, cg_tol=1e-7, tol=1e-6),
        "fista": dict(lam=2e-3, max_iters=100, tol=0.0, fista=True),
        "direct_side": 256, "direct_views": 360, "direct_pool": 2,
        "train_side": 64, "train_views": 90, "n_train": 24, "n_held": 8,
        "epochs": 12, "depth": 3, "channels": 16,
        "floors": {"tv": 12.0, "fista": 6.0, "fbp": 14.0, "deconv": 22.0,
                   "reproj": 28.0, "cnn": 8.0},
    },
    "tiny": {
        "iter_side": 32, "iter_views": 42, "factor": 7, "iter_pool": 2,
        "tv": dict(lam=3e-3, rho=0.1, max_iters=5, cg_iters=5, cg_tol=1e-7, tol=1e-6),
        "fista": dict(lam=2e-3, max_iters=10, tol=0.0, fista=True),
        "direct_side": 32, "direct_views": 45, "direct_pool": 2,
        "train_side": 32, "train_views": 42, "n_train": 3, "n_held": 2,
        "epochs": 1, "depth": 2, "channels": 4,
        "floors": {"tv": 0.0, "fista": 0.0, "fbp": 0.0, "deconv": 0.0,
                   "reproj": 0.0, "cnn": 0.0},
    },
}
QUALITY_NAMES = {"tv": "tv_snr_db", "fista": "fista_snr_db", "fbp": "fbp_snr_db",
                 "deconv": "deconv_agree_db", "reproj": "reproj_snr_db", "cnn": "cnn_snr_db"}
TV_MARGIN_DB = 3.0   # TV must beat the sparse-view FBP by this much (as AC6)
REFERENCE_TOL_DB = {"tv": 0.5, "fista": 0.5, "fbp": 0.5, "deconv": 0.5,
                    "reproj": 0.5, "cnn": 1.0}


def load_reference(workload, seed, profile):
    """Per-instance quality recorded at the defining commit, if this seed was
    recorded; {} otherwise (then only the floors apply)."""
    path = os.path.join(HERE, "reference.json")
    if profile != "full" or not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


class Check:
    """Collects check failures for one output; an empty list means it passed."""

    def __init__(self):
        self.errors = []

    def image(self, out, shape):
        values = getattr(out, "values", out)
        if not isinstance(values, np.ndarray) or values.shape != shape:
            self.errors.append(f"shape {getattr(values, 'shape', None)} != {shape}")
            return False
        if not np.all(np.isfinite(values)):
            self.errors.append("non-finite output")
            return False
        return True

    def at_least(self, label, value, floor):
        if not value >= floor:
            self.errors.append(f"{label} {value:.3f} dB below {floor:.3f} dB")


class Workload:
    """Base: a sequence of items (instances), each a list of timed calls."""

    name = ""

    def __init__(self, prof, seed, reference):
        self.prof = prof
        self.seed = seed
        self.root = Rng(seed)
        self.floors = prof["floors"]
        self.reference = reference
        self._cache = {}

    def quality(self, chk, key, k, db):
        """Floor check for every instance; pool instances of a recorded seed
        are also compared with the recorded value."""
        chk.at_least(key, db, self.floors[key])
        recorded = self.reference.get(key, [])
        if k < len(recorded) and abs(db - recorded[k]) > REFERENCE_TOL_DB[key]:
            chk.errors.append(f"{key} {db:.3f} dB differs from the recorded {recorded[k]:.3f} dB "
                              f"by more than {REFERENCE_TOL_DB[key]} dB")
        return {key: db}

    def item(self, k):
        if k not in self._cache:
            self._cache = {k: self.make_item(k)}   # keep one item alive at a time
        return self._cache[k]


class Iterative(Workload):
    """TV-ADMM and FISTA solves of fresh phantoms on one 13-view geometry."""

    name = "iterative-64"
    QUALITY = ("tv", "fista")
    THROUGHPUT = "ops_per_s"
    TAIL_OF = {"tv_solve_s.p50": "tv", "fista_solve_s.p50": "fista"}

    def __init__(self, prof, seed, reference):
        super().__init__(prof, seed, reference)
        side = prof["iter_side"]
        self.geom = projector.uniform_geometry(side, prof["iter_views"])
        self.ramp = fbp.make_ramp(self.geom.n_bins, self.geom.det_spacing, "none")
        self.tv_cfg = sparse.SolverConfig(**prof["tv"])
        self.fista_cfg = sparse.SolverConfig(**prof["fista"])
        self.pool = prof["iter_pool"]
        self.shape = (side, side)

    def make_item(self, k):
        sino = phantom.analytic_sinogram(phantom.random_phantom(self.root.split(k)), self.geom)
        sub = fbp.subsample_views(sino, self.prof["factor"])
        ref = fbp.fbp_reconstruct(sino, self.ramp)
        return {"sub": sub, "ref": ref,
                "sparse_fbp_db": pipeline.snr(ref, fbp.fbp_reconstruct(sub, self.ramp))}

    def calls(self, k):
        it = self.item(k)
        return [("tv", lambda: sparse.tv_admm_reconstruct(it["sub"], self.tv_cfg)),
                ("fista", lambda: sparse.ista_reconstruct(it["sub"], self.fista_cfg))]

    def check(self, kind, k, out, chk):
        it = self.item(k)
        if not chk.image(out, self.shape):
            return {}
        db = pipeline.snr(it["ref"], out)
        if kind == "tv":
            chk.at_least("tv margin over sparse FBP", db - it["sparse_fbp_db"], TV_MARGIN_DB)
        return self.quality(chk, kind, k, db)

    def throughput(self, st):
        return (st.count("tv") + st.count("fista")) / st.busy()

    def timings(self, st):
        return {"tv_solve_s.p50": st.p50("tv"), "fista_solve_s.p50": st.p50("fista")}


class Direct(Workload):
    """Reprojection, FBP and deconvolution-form FBP of fresh 256x256 phantoms."""

    name = "direct-256"
    QUALITY = ("fbp", "deconv", "reproj")
    THROUGHPUT = "ops_per_s"
    TAIL_OF = {"forward_s.p50": "forward", "fbp_s.p50": "fbp", "deconv_s.p50": "deconv"}

    def __init__(self, prof, seed, reference):
        super().__init__(prof, seed, reference)
        side = prof["direct_side"]
        self.geom = projector.uniform_geometry(side, prof["direct_views"])
        self.pool = prof["direct_pool"]
        self.shape = (side, side)
        self._fbp = {}

    def make_item(self, k):
        ph = phantom.random_phantom(self.root.split(k))
        return {"sino": phantom.analytic_sinogram(ph, self.geom),
                "raster": phantom.rasterize(ph, self.geom.image_side)}

    def calls(self, k):
        it = self.item(k)
        return [("forward", lambda: projector.forward(it["raster"], self.geom)),
                ("fbp", lambda: fbp.fbp_reconstruct(it["sino"])),
                ("deconv", lambda: fbp.deconvolution_form(it["sino"]))]

    def check(self, kind, k, out, chk):
        it = self.item(k)
        if kind == "forward":
            if not chk.image(out, (self.geom.n_views, self.geom.n_bins)):
                return {}
            return self.quality(chk, "reproj", k, pipeline.snr(it["sino"], out))
        if not chk.image(out, self.shape):
            return {}
        if kind == "fbp":
            self._fbp[k] = out
            return self.quality(chk, "fbp", k, pipeline.snr(it["raster"], out))
        if k not in self._fbp:
            chk.errors.append("no FBP of this instance to compare with")
            return {}
        return self.quality(chk, "deconv", k, pipeline.snr(self._fbp.pop(k), out))

    def throughput(self, st):
        return (st.count("forward") + st.count("fbp") + st.count("deconv")) / st.busy()

    def timings(self, st):
        return {"forward_s.p50": st.p50("forward"), "fbp_s.p50": st.p50("fbp"),
                "deconv_s.p50": st.p50("deconv")}


class Train(Workload):
    """One batch-1 SGD `train` call on AC9-style pairs, then `forward_net`
    on held-out images.  Item 0 is the train call; item k > 0 infers held-out
    image (k - 1) mod n_held."""

    name = "train-64"
    QUALITY = ("cnn",)
    THROUGHPUT = "train_steps_per_s"
    TAIL_OF = {"infer_s.p50": "infer"}

    def __init__(self, prof, seed, reference):
        super().__init__(prof, seed, reference)
        side = prof["train_side"]
        geom = projector.uniform_geometry(side, prof["train_views"])
        gt_ramp = fbp.make_ramp(geom.n_bins, geom.det_spacing, "none")
        in_ramp = fbp.make_ramp(geom.n_bins, geom.det_spacing, "hann")
        raw = []
        for i in range(prof["n_train"] + prof["n_held"]):
            sino = phantom.analytic_sinogram(phantom.random_phantom(self.root.split(i)), geom)
            sparse_view = fbp.subsample_views(sino, prof["factor"])
            raw.append((fbp.fbp_reconstruct(sparse_view, in_ramp).values,
                        fbp.fbp_reconstruct(sino, gt_ramp).values))
        # training dynamic range [0, 550], as the pipeline and AC9 use
        vmin = min(t.min() for _, t in raw[:prof["n_train"]])
        vmax = max(t.max() for _, t in raw[:prof["n_train"]])
        gain = 550.0 / (vmax - vmin)
        pairs = [((gain * x - gain * vmin).astype(np.float32),
                  (gain * t - gain * vmin).astype(np.float32)) for x, t in raw]
        self.train_pairs = pairs[:prof["n_train"]]
        self.held = pairs[prof["n_train"]:]
        self.steps = prof["n_train"] * prof["epochs"]
        self.pool = 1 + len(self.held)
        self.shape = (side, side)
        self.params = None

    def make_item(self, k):
        return None

    def calls(self, k):
        if k == 0:
            def fit():
                params = net.init_params(self.prof["depth"], self.prof["channels"],
                                         Rng(self.seed).split(10_007))
                return net.train(params, self.train_pairs,
                                 net.TrainConfig(epochs=self.prof["epochs"]),
                                 Rng(self.seed).split(20_007))
            return [("train", fit)]
        x, _ = self.held[(k - 1) % len(self.held)]
        return [("infer", lambda: net.forward_net(self.params, x))]

    def check(self, kind, k, out, chk):
        if kind == "train":
            params, history = out
            losses = [row[1] for row in history]
            if len(losses) != self.prof["epochs"] or not np.all(np.isfinite(losses)):
                chk.errors.append(f"training stopped early or loss not finite: {losses}")
                return {}
            self.params = params
            return {}
        if not chk.image(out, self.shape):
            return {}
        return self.quality(chk, "cnn", k - 1,
                            pipeline.snr(self.held[(k - 1) % len(self.held)][1], out))

    def throughput(self, st):
        return self.steps / st.total("train")

    def timings(self, st):
        return {"train_step_s": st.total("train") / self.steps, "infer_s.p50": st.p50("infer")}


WORKLOADS = {w.name: w for w in (Iterative, Direct, Train)}


class Stats:
    """Durations of timed calls by kind, and checked-operation counts."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, kind, seconds):
        self.samples.setdefault(kind, []).append(seconds)

    def count(self, kind):
        return len(self.samples.get(kind, []))

    def total(self, kind):
        return float(sum(self.samples.get(kind, [])))

    def busy(self):
        return float(sum(sum(v) for v in self.samples.values()))

    def p50(self, kind):
        return float(np.median(self.samples[kind]))

    def tails(self):
        """Per kind: sample count and the highest whole percentile that leaves
        at least ten samples above it (None with ten samples or fewer)."""
        out = {}
        for kind, v in self.samples.items():
            n = len(v)
            pct = int(100 * (n - 10) // n) if n > 10 else None
            out[kind] = {"n": n, "p50": float(np.median(v)), "tail_pct": pct,
                         "tail_s": float(np.percentile(v, pct)) if pct else None}
        return out


def run_loop(wl, stats, quality, budget_s=None, tracer=None):
    """Closed loop over items.  Runs at least the quality pool; with a budget
    it goes on until the timed calls have used budget_s seconds, stopping
    between two calls (items past the pool may be cut short)."""
    def more():
        return k < wl.pool or (budget_s is not None and stats.busy() < budget_s)

    k = 0
    while more():
        for kind, call in wl.calls(k):
            if not more():
                break
            stats.attempted += 1
            if tracer is not None:
                tracer.op = stats.attempted
            start = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failed call counts and the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            else:
                err = None
            stats.add(kind, time.perf_counter() - start)
            if tracer is not None:
                tracer.op = 0
            chk = Check()
            if err is not None:
                chk.errors.append(err)
                got = {}
            else:
                got = wl.check(kind, k, out, chk)
            if chk.errors:
                stats.failed += 1
                stats.errors.append(f"item {k} {kind}: {'; '.join(chk.errors)}")
            if k < wl.pool:
                for key, value in got.items():
                    quality.setdefault(key, []).append(value)
        k += 1


def warm_up():
    """One pass through every layer on a 16x16, 18-view geometry that no
    timed call uses: fills lazy imports and allocator caches."""
    geom = projector.uniform_geometry(16, 18)
    ph = phantom.random_phantom(Rng(2**40))
    sino = phantom.analytic_sinogram(ph, geom)
    raster = phantom.rasterize(ph, 16)
    projector.forward(raster, geom)
    fbp.fbp_reconstruct(sino)
    fbp.deconvolution_form(sino)
    sub = fbp.subsample_views(sino, 6)
    sparse.tv_admm_reconstruct(sub, sparse.SolverConfig(lam=3e-3, rho=0.1, max_iters=2, cg_iters=3))
    sparse.ista_reconstruct(sub, sparse.SolverConfig(lam=2e-3, max_iters=3, tol=0.0, fista=True))
    params = net.init_params(3, 16, Rng(1))
    x = raster.values.astype(np.float32)
    params, _ = net.train(params, [(x, x)], net.TrainConfig(epochs=1), Rng(2))
    net.forward_net(params, x)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "sparsect"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "sparsect", name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", "_s.p50")):
        return "s"
    if name.endswith("_db"):
        return "dB"
    if name.endswith("_mb"):
        return "MB"
    return "ratio"


def report(wl, record):
    """Human-readable lines: every named metric with its unit, the timing
    tails, failures and the environment."""
    tails = record["timings"]
    for name, value in record["named"].items():
        if name == "setup_s":
            continue   # run.py prints the median over its setup processes
        line = f"{wl.name} {name} {value:.6g} {unit_of(name)}"
        kind = wl.TAIL_OF.get(name)
        if kind in tails:
            t = tails[kind]
            line += (f"  (n={t['n']}; p{t['tail_pct']} {t['tail_s']:.6g} s)" if t["tail_pct"]
                     else f"  (n={t['n']}; no percentile has 10 samples above it)")
        print(line)
    print(f"{wl.name} attempted {record['attempted']} failed {record['failed']}")
    for err in record["errors"]:
        print(f"FAILED {wl.name}: {err}")
    print(f"{wl.name} environment {json.dumps(record['environment'])}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=sorted(PROFILES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    wl = WORKLOADS[args.workload](PROFILES[args.profile], args.seed,
                                  load_reference(args.workload, args.seed, args.profile))
    wl.item(0)
    try:
        warm_up()
    except Exception as exc:  # a broken layer then fails its timed calls, which count
        warm_error = f"warm-up: {type(exc).__name__}: {exc}"
    else:
        warm_error = None
    setup_s = time.time() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    stats, quality = Stats(), {}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "profile": args.profile}
    if tracer is None:
        run_loop(wl, stats, quality, budget_s=args.seconds)
    else:
        # the same fixed work untraced, then traced: the throughput difference
        # is the tracing overhead, and per-layer counts do not depend on speed
        tracer.uninstall()
        plain = Stats()
        run_loop(wl, plain, {})
        tracer.install()
        run_loop(wl, stats, quality, tracer=tracer)
        tracer.uninstall()
        stats.attempted += plain.attempted
        stats.failed += plain.failed
        stats.errors += plain.errors
        untraced, traced = wl.throughput(plain), wl.throughput(stats)
        record["per_layer"] = tracer.layer_metrics((traced - untraced) / untraced)
        record["untraced_throughput"], record["traced_throughput"] = untraced, traced

    named = {"setup_s": setup_s, wl.THROUGHPUT: wl.throughput(stats), **wl.timings(stats)}
    for key in wl.QUALITY:   # NaN when every output of this kind failed
        named[QUALITY_NAMES[key]] = float(np.mean(quality[key])) if key in quality else float("nan")
    named["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named["failed_frac"] = stats.failed / stats.attempted
    record.update({
        "named": named,
        "end_to_end": {"setup_s": setup_s, "ops_per_s": named[wl.THROUGHPUT],
                       "peak_rss_mb": named["peak_rss_mb"]},
        "timings": stats.tails(),
        "samples_s": stats.samples,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "errors": stats.errors + ([warm_error] if warm_error else []),
        "quality": quality,
        "environment": environment(),
    })

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + "-spans.json")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    report(wl, record)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
