"""End-to-end experiments: dataset generation, the three reconstruction
methods on identical test instances, affine-calibrated SNR scoring, and
deterministic result emission.

Ground truth is the full-view FBP (training needs no oracle knowledge); the
rasterized phantom is also exported for diagnostics.  The TV weight is tuned
by golden-section search on log-lambda over training instances only.
"""

import os
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .numerics import Rng, snr, SNR_CAP_DB
from .projector import uniform_geometry
from .phantom import random_phantom, rasterize, analytic_sinogram, save_phantom
from .fbp import APODIZATIONS, make_ramp, fbp_reconstruct, subsample_views
from .sparse import SolverConfig, tv_admm_reconstruct
from .net import TrainConfig, init_params, forward_net, train
from . import formats

__all__ = ["ExperimentManifest", "ResultTable", "snr", "golden_section",
           "train_cnn", "run_experiment", "SNR_CAP_DB"]


def golden_section(fn, lo, hi, iters=10):
    """Maximize fn over [lo, hi]; returns (best_x, best_fn)."""
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = fn(d)
    return (c, fc) if fc > fd else (d, fd)


@dataclass
class ExperimentManifest:
    seed: int = 0
    image_side: int = 64
    n_views: int = 90
    factors: tuple = (7, 20)
    n_train: int = 200
    n_test: int = 25
    scale_lo: float = 0.0
    scale_hi: float = 550.0   # training dynamic range; gradients must be large
                              # enough for the clipped-SGD regime to move
    epochs: int = 30
    depth: int = 3
    base_channels: int = 16
    gt_apodization: str = "none"     # full-view ground-truth FBP filter
    input_apodization: str = "hann"  # sparse-view FBP fed to the CNN
    tv_lambda: float = 0.0           # 0 -> tune by golden-section search
    tv_rho: float = 0.1
    tv_iters: int = 50
    cg_iters: int = 15
    cg_tol: float = 1e-7
    tv_tune_count: int = 5           # training instances used for tuning
    tv_lambda_lo: float = 1e-4
    tv_lambda_hi: float = 3e-2
    golden_iters: int = 8

    def __post_init__(self):
        """Reject runs that could only fail late, after the dataset is built."""
        if min(self.n_train, self.epochs, self.base_channels) < 1 or self.n_test < 0:
            raise ValueError(f"n_train ({self.n_train}), epochs ({self.epochs}) and "
                             f"base_channels ({self.base_channels}) must be at least 1, "
                             f"n_test ({self.n_test}) at least 0")
        if self.image_side < 16:  # the smallest side `rasterize` draws
            raise ValueError(f"image_side ({self.image_side}) must be at least 16")
        bad = {self.gt_apodization, self.input_apodization} - set(APODIZATIONS)
        if bad:
            raise ValueError(f"apodizations {sorted(bad)} not in {APODIZATIONS}")
        bad = [f for f in self.factors if not 1 <= f <= self.n_views]
        if bad:
            raise ValueError(f"factors {bad} outside [1, n_views = {self.n_views}]")
        if self.depth < 0 or self.image_side % (1 << self.depth):
            raise ValueError(f"depth ({self.depth}) must be at least 0 and 2**depth "
                             f"must divide image_side ({self.image_side})")
        big = float(np.finfo(np.float32).max)  # the network trains in float32
        if not -big <= self.scale_lo < self.scale_hi <= big:
            raise ValueError(f"scale_lo ({self.scale_lo}) and scale_hi ({self.scale_hi}) "
                             f"must lie within float32's ±{big:.4g}, scale_hi the larger")
        try:  # the solver's own rules, otherwise first met at the first TV solve
            _tv_config(self, 1.0 if self.tv_lambda <= 0 else self.tv_lambda)
        except ValueError as exc:
            raise ValueError(f"TV settings (tv_lambda, tv_rho, tv_iters, cg_iters, "
                             f"cg_tol): {exc}") from exc
        if self.tv_lambda <= 0 and not (  # lambda is tuned on training instances
                self.tv_tune_count >= 1
                and 0 < self.tv_lambda_lo < self.tv_lambda_hi < np.inf):
            raise ValueError(f"tuning needs tv_tune_count ({self.tv_tune_count}) >= 1 "
                             f"and 0 < tv_lambda_lo ({self.tv_lambda_lo}) < "
                             f"tv_lambda_hi ({self.tv_lambda_hi}) < inf")

    @classmethod
    def load(cls, path):
        """The manifest in `path`: `key = value` lines (each key once), blank
        lines and `#` comments skipped, each value typed as its field's default."""
        types = {f.name: type(f.default) for f in fields(cls)}
        kwargs = {}
        try:
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    key, eq, value = (part.strip() for part in line.partition("="))
                    if not eq:
                        raise ValueError(f"bad manifest line: {line!r}")
                    if key not in types:
                        raise ValueError(f"unknown manifest key {key!r}")
                    if key in kwargs:
                        raise ValueError(f"manifest key {key!r} given twice")
                    kwargs[key] = (tuple(int(v) for v in value.split(","))
                                   if types[key] is tuple else types[key](value))
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def save(self, path):
        with open(path, "w") as fh:
            for key, value in asdict(self).items():
                if key == "factors":
                    value = ",".join(str(f) for f in value)
                fh.write(f"{key} = {value}\n")


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)   # (factor, method, index, snr_db)
    means: dict = field(default_factory=dict)  # (factor, method) -> mean snr
    timings: dict = field(default_factory=dict)  # (factor, method) -> sec/image
    tune_log: list = field(default_factory=list)

    def add(self, factor, method, snrs, seconds_per_image):
        for i, v in enumerate(snrs):
            self.rows.append((factor, method, i, float(v)))
        self.means[(factor, method)] = float(np.mean(snrs))
        self.timings[(factor, method)] = float(seconds_per_image)

    def write(self, out_dir):
        formats.write_csv(self.rows, ["factor", "method", "test_index", "snr_db"],
                          os.path.join(out_dir, "results.csv"))
        mean_rows = [(f, m, self.means[(f, m)]) for (f, m) in sorted(self.means)]
        formats.write_csv(mean_rows, ["factor", "method", "mean_snr_db"],
                          os.path.join(out_dir, "results_mean.csv"))
        # wall-clock is inherently non-deterministic; kept out of results.csv
        t_rows = [(f, m, self.timings[(f, m)]) for (f, m) in sorted(self.timings)]
        formats.write_csv(t_rows, ["factor", "method", "seconds_per_image"],
                          os.path.join(out_dir, "timings.csv"))


def generate_dataset(manifest: ExperimentManifest):
    """Phantoms, exact sinograms, and ground-truth FBPs for instances
    0 .. n_train + n_test - 1, training instances first.

    Index i always uses the same derived seed, so train/test membership is a
    pure function of the manifest.
    """
    geom = uniform_geometry(manifest.image_side, manifest.n_views)
    root = Rng(manifest.seed)
    gt_filter = make_ramp(geom.n_bins, geom.det_spacing, manifest.gt_apodization)
    out = []
    for i in range(manifest.n_train + manifest.n_test):
        ph = random_phantom(root.split(i))
        sino = analytic_sinogram(ph, geom)
        gt = fbp_reconstruct(sino, gt_filter)
        out.append((i, ph, sino, gt))
    return geom, out


def _tv_config(manifest, lam):
    return SolverConfig(lam=lam, rho=manifest.tv_rho, max_iters=manifest.tv_iters,
                        cg_iters=manifest.cg_iters, cg_tol=manifest.cg_tol,
                        tol=1e-6)


def tune_tv_lambda(manifest, subs_train, gts_train, table: ResultTable):
    """Golden-section search over log-lambda on training instances only; each
    (lambda, mean SNR) it scores is appended to `table.tune_log`."""
    def score(log_lam):
        lam = float(np.exp(log_lam))
        vals = [snr(gt, tv_admm_reconstruct(sub, _tv_config(manifest, lam)))
                for sub, gt in zip(subs_train, gts_train)]
        mean = float(np.mean(vals))
        table.tune_log.append((lam, mean))
        return mean

    best_log, _ = golden_section(score, np.log(manifest.tv_lambda_lo),
                                 np.log(manifest.tv_lambda_hi),
                                 manifest.golden_iters)
    return float(np.exp(best_log))


def train_cnn(manifest: ExperimentManifest, factor, train_data):
    """The residual CNN for one view-subsampling factor, trained on (sparse-view
    FBP, full-view FBP) pairs of `generate_dataset` rows, both passed through
    the affine map that sends the targets onto [scale_lo, scale_hi].  The params
    keep that map as `net_input`.  Returns (params, history)."""
    geom = train_data[0][2].geometry
    input_filter = make_ramp(geom.n_bins, geom.det_spacing, manifest.input_apodization)
    fbps = [fbp_reconstruct(subsample_views(sino, factor), input_filter).values
            for _, _, sino, _ in train_data]
    gts = [gt.values for *_, gt in train_data]
    vmin = min(float(g.min()) for g in gts)
    vmax = max(float(g.max()) for g in gts)
    span = vmax - vmin if vmax > vmin else 1.0
    params = init_params(manifest.depth, manifest.base_channels,
                         Rng(manifest.seed).split(10_000 + factor))
    params.gain = (manifest.scale_hi - manifest.scale_lo) / span
    params.offset = manifest.scale_lo - params.gain * vmin
    pairs = [(params.net_input(f), params.net_input(g)) for f, g in zip(fbps, gts)]
    if not all(np.isfinite(p).all() for pair in pairs for p in pair):
        raise ValueError(f"scale_lo ({manifest.scale_lo}) and scale_hi ({manifest.scale_hi}) "
                         f"map the training images beyond float32")
    return train(params, pairs, TrainConfig(epochs=manifest.epochs),
                 Rng(manifest.seed).split(20_000 + factor))


def run_experiment(manifest: ExperimentManifest, out_dir) -> ResultTable:
    if manifest.n_test < 1:
        raise ValueError(f"a run scores n_test ({manifest.n_test}) test instances, "
                         f"at least 1")
    os.makedirs(out_dir, exist_ok=True)
    manifest.save(os.path.join(out_dir, "manifest.txt"))
    geom, data = generate_dataset(manifest)
    train_data = data[:manifest.n_train]
    test_data = data[manifest.n_train:]
    test_ids = [i for i, *_ in test_data]

    table = ResultTable()
    input_filter = make_ramp(geom.n_bins, geom.det_spacing,
                             manifest.input_apodization)
    gts_test = [gt.values for *_, gt in test_data]

    # diagnostics: rasterized phantoms and ground truths for the test set
    for i, ph, _, gt in test_data:
        save_phantom(ph, os.path.join(out_dir, f"phantom_{i:04d}.txt"))
        formats.save_pgm(gt.values, os.path.join(out_dir, f"gt_{i:04d}.pgm"))
        formats.save_pgm(rasterize(ph, manifest.image_side).values,
                         os.path.join(out_dir, f"raster_{i:04d}.pgm"))

    def score(factor, method, reconstruct, inputs):
        """Reconstruct every test input, timing only the reconstructions, then
        score and preview the images and return them."""
        t0 = time.perf_counter()
        images = [reconstruct(x) for x in inputs]
        seconds = (time.perf_counter() - t0) / len(inputs)
        table.add(factor, method, [snr(gt, im) for gt, im in zip(gts_test, images)],
                  seconds)
        for i, im in zip(test_ids, images):
            formats.save_pgm(im, os.path.join(out_dir, f"{method}_x{factor}_{i:04d}.pgm"))
        return images

    for factor in manifest.factors:
        if factor == 1:
            # trivial self-comparison row: ground truth scored against itself
            table.add(1, "fbp", [snr(gt, gt) for gt in gts_test], 0.0)
            continue
        subs_test = [subsample_views(s, factor) for _, _, s, _ in test_data]

        # sparse-view FBP (also the CNN input)
        fbps_test = score(factor, "fbp",
                          lambda s: fbp_reconstruct(s, input_filter).values, subs_test)

        # TV-ADMM, lambda tuned on training instances only
        lam = manifest.tv_lambda
        if lam <= 0:
            tune = train_data[:manifest.tv_tune_count]
            lam = tune_tv_lambda(manifest,
                                 [subsample_views(s, factor) for _, _, s, _ in tune],
                                 [gt for *_, gt in tune], table)
        config = _tv_config(manifest, lam)
        score(factor, "tv", lambda s: tv_admm_reconstruct(s, config).values, subs_test)

        # residual CNN on (sparse FBP, full-view FBP) pairs
        params, history = train_cnn(manifest, factor, train_data)
        formats.write_csv(history, ["epoch", "train_loss"],
                          os.path.join(out_dir, f"history_x{factor}.csv"))
        formats.save_weights(params, os.path.join(out_dir, f"net_x{factor}.net"))
        score(factor, "cnn", lambda f: forward_net(params, params.net_input(f)),
              fbps_test)

    # fairness audit: tuning used only training instances (ids < n_train)
    with open(os.path.join(out_dir, "run_log.txt"), "w") as fh:
        fh.write(f"tuning_instance_ids = {list(range(min(manifest.tv_tune_count, manifest.n_train)))}\n")
        fh.write(f"test_instance_ids = {test_ids}\n")
        fh.write(f"tune_log = {table.tune_log}\n")
    table.write(out_dir)
    return table
