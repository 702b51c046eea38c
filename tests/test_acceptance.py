"""Acceptance suite: eleven numbered criteria, one test each.

Each test prints a single `[AC<n>] PASS ...` line (visible with `pytest -v -s`
or in captured output) summarizing the measured quantities against their
thresholds.
"""

import time

import numpy as np
import pytest

from sparsect.numerics import Rng
from sparsect.projector import (uniform_geometry, Image, Sinogram, forward,
                                adjoint, certify_normal_convolution)
from sparsect.phantom import (Ellipse, Phantom, random_phantom, rasterize,
                              analytic_sinogram)
from sparsect.fbp import make_ramp, fbp_reconstruct, subsample_views
from sparsect.sparse import SolverConfig, ista_reconstruct, tv_admm_reconstruct
from sparsect.net import init_params, forward_net, backward_net
from sparsect.pipeline import (ExperimentManifest, run_experiment, snr, SNR_CAP_DB,
                               generate_dataset, train_cnn)


@pytest.fixture(scope="module")
def geom64():
    return uniform_geometry(64, 90)


@pytest.fixture(scope="module")
def test_set(geom64):
    """The 25 held-out phantoms (indices 200..224 of the default experiment):
    (raster truth, full sinogram, full FBP, 13-view FBP, 5-view sinogram)."""
    root = Rng(0)
    filt = make_ramp(geom64.n_bins, geom64.det_spacing, "none")
    out = []
    for i in range(200, 225):
        ph = random_phantom(root.split(i))
        truth = rasterize(ph, 64)
        sino = analytic_sinogram(ph, geom64)
        out.append((truth, sino,
                    fbp_reconstruct(sino, filt),
                    fbp_reconstruct(subsample_views(sino, 7), filt),
                    fbp_reconstruct(subsample_views(sino, 20), filt)))
    return out


def test_ac1_adjoint_identity(geom64):
    t0 = time.perf_counter()
    rng = Rng(100)
    worst = 0.0
    for _ in range(20):
        x = rng.normal((64, 64))
        y = rng.normal((geom64.n_views, geom64.n_bins))
        hx = forward(Image(x, geom64.pixel_spacing), geom64).values
        hty = adjoint(Sinogram(geometry=geom64, values=y)).values
        err = abs(np.sum(hx * y) - np.sum(x * hty)) / (np.linalg.norm(hx)
                                                       * np.linalg.norm(y))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"\n[AC1] PASS adjoint identity: worst relative error {worst:.3e} "
          f"<= 1e-10 over 20 pairs in {elapsed:.2f}s (< 10s)")


def test_ac2_normal_operator_certification(geom64):
    t0 = time.perf_counter()
    report = certify_normal_convolution(geom64)
    elapsed = time.perf_counter() - t0
    assert report.shift_invariance_score <= 0.05
    assert abs(report.spectral_slope + 1.0) <= 0.15
    assert elapsed < 60.0
    print(f"\n[AC2] PASS certification: shift-invariance score "
          f"{report.shift_invariance_score:.4f} <= 0.05, spectral slope "
          f"{report.spectral_slope:.3f} in -1 +/- 0.15, in {elapsed:.2f}s (< 60s)")


def test_ac3_analytic_vs_discrete_disk():
    t0 = time.perf_counter()
    disk = Phantom([Ellipse(0.0, 0.0, 0.6, 0.6, 0.0, 1.0)])
    geom = uniform_geometry(256, 360)
    exact = analytic_sinogram(disk, geom).values
    disc = forward(rasterize(disk, 256), geom).values
    rel = np.linalg.norm(exact - disc) / np.linalg.norm(exact)
    elapsed = time.perf_counter() - t0
    assert rel <= 0.02
    assert elapsed < 60.0
    print(f"\n[AC3] PASS projector accuracy: unit-disk relative L2 error "
          f"{rel:.4f} <= 0.02 at 256^2/360 views in {elapsed:.2f}s (< 60s)")


def test_ac4_fbp_quality_ordering(test_set):
    triples = []
    for truth, _, full, f13, f5 in test_set:
        triples.append((snr(truth, full), snr(truth, f13), snr(truth, f5)))
        s_full, s13, s5 = triples[-1]
        assert s_full > s13 > s5, f"ordering violated: {triples[-1]}"
    arr = np.array(triples)
    print(f"\n[AC4] PASS FBP ordering strict on all 25 instances: mean SNR "
          f"full {arr[:, 0].mean():.2f} > 13-view {arr[:, 1].mean():.2f} > "
          f"5-view {arr[:, 2].mean():.2f} dB")


def test_ac5_ista_monotone_fista_speedup(geom64):
    root = Rng(42)
    mono_ok = 0
    fista_ok = 0
    for i in range(10):
        ph = random_phantom(root.split(i))
        sino = subsample_views(analytic_sinogram(ph, geom64), 7)
        h_ista, h_fista = [], []
        ista_reconstruct(sino, SolverConfig(lam=2e-3, max_iters=200, tol=0.0),
                         history=h_ista)
        ista_reconstruct(sino, SolverConfig(lam=2e-3, max_iters=100, tol=0.0,
                                            fista=True), history=h_fista)
        objs = [o for _, o in h_ista]
        mono = all(objs[k + 1] <= objs[k] + 1e-9 * abs(objs[k])
                   for k in range(len(objs) - 1))
        assert mono, f"ISTA objective increased on instance {i}"
        mono_ok += 1
        if min(o for _, o in h_fista) <= objs[-1]:
            fista_ok += 1
    assert fista_ok >= 8
    print(f"\n[AC5] PASS ISTA monotone on {mono_ok}/10 instances; FISTA(100) "
          f"reached ISTA(200) objective on {fista_ok}/10 (need >= 8)")


def test_ac6_tv_beats_sparse_fbp(test_set):
    cfg = SolverConfig(lam=3e-3, rho=0.1, max_iters=50, cg_iters=15,
                       cg_tol=1e-7, tol=1e-6)
    fbp_snrs, tv_snrs = [], []
    for truth, sino, _, f13, _ in test_set:
        sub = subsample_views(sino, 7)
        fbp_snrs.append(snr(truth, f13))
        tv_snrs.append(snr(truth, tv_admm_reconstruct(sub, cfg)))
    margin = np.mean(tv_snrs) - np.mean(fbp_snrs)
    assert margin > 3.0
    print(f"\n[AC6] PASS TV superiority at 13 views: mean TV "
          f"{np.mean(tv_snrs):.2f} dB vs mean FBP {np.mean(fbp_snrs):.2f} dB "
          f"(margin {margin:.2f} > 3 dB) over 25 instances")


def test_ac7_gradient_check_full():
    t0 = time.perf_counter()
    params = init_params(depth=2, base_channels=4, rng=Rng(7), dtype=np.float64,
                         zero_final=False)
    x = Rng(8).normal((16, 16))
    seed = Rng(9).normal((16, 16))
    grads = backward_net(params, x, seed)
    eps = 1e-6
    worst = 0.0
    n_checked = 0
    for name in sorted(params.weights):
        arr = params.weights[name]
        flat = arr.ravel()
        gflat = grads[name].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = np.sum(forward_net(params, x) * seed)
            flat[idx] = orig - eps
            dn = np.sum(forward_net(params, x) * seed)
            flat[idx] = orig
            fd = (up - dn) / (2 * eps)
            rel = abs(gflat[idx] - fd) / max(abs(gflat[idx]) + abs(fd), 1e-8)
            worst = max(worst, rel)
            n_checked += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4
    assert elapsed < 120.0
    print(f"\n[AC7] PASS gradient check: worst relative error {worst:.3e} "
          f"<= 1e-4 over all {n_checked} parameters in {elapsed:.1f}s (< 120s)")


def test_ac8_zero_init_identity():
    params = init_params(depth=3, base_channels=16, rng=Rng(10))
    for k in params.weights:
        params.weights[k][:] = 0.0
    rng = Rng(11)
    for shape in ((64, 64), (32, 32)):
        x = rng.normal(shape).astype(np.float32)
        assert np.array_equal(forward_net(params, x), x)
    print("\n[AC8] PASS residual identity: zero-initialized network returns "
          "its input bit-for-bit")


def test_ac9_learning_efficacy():
    # the default experiment's factor-7 network: 200 training instances, 30
    # epochs, scored on the 25 held-out instances against the 13-view FBP
    t0 = time.perf_counter()
    manifest = ExperimentManifest()
    geom, data = generate_dataset(manifest)
    params, _ = train_cnn(manifest, 7, data[:200])
    elapsed = time.perf_counter() - t0
    in_filter = make_ramp(geom.n_bins, geom.det_spacing, manifest.input_apodization)
    fbp_snrs, cnn_snrs = [], []
    for _, _, sino, gt in data[200:]:
        fbp13 = fbp_reconstruct(subsample_views(sino, 7), in_filter).values
        fbp_snrs.append(snr(gt, fbp13))
        cnn_snrs.append(snr(gt, forward_net(params, params.net_input(fbp13))))
    margin = np.mean(cnn_snrs) - np.mean(fbp_snrs)
    assert margin >= 2.0
    assert elapsed < 1800.0
    print(f"\n[AC9] PASS learning efficacy: mean test SNR CNN "
          f"{np.mean(cnn_snrs):.2f} dB vs sparse FBP {np.mean(fbp_snrs):.2f} dB "
          f"(margin {margin:.2f} >= 2 dB), trained in {elapsed / 60:.1f} min (< 30)")


def test_ac10_determinism(tmp_path):
    manifest = ExperimentManifest(seed=3, image_side=32, n_views=30,
                                  factors=(1, 5), n_train=6, n_test=3, epochs=2,
                                  depth=1, base_channels=4, tv_iters=15,
                                  cg_iters=10, golden_iters=3, tv_tune_count=2)
    run_experiment(manifest, tmp_path / "a")
    run_experiment(manifest, tmp_path / "b")
    for name in ("results.csv", "results_mean.csv"):
        ba = (tmp_path / "a" / name).read_bytes()
        bb = (tmp_path / "b" / name).read_bytes()
        assert ba == bb, f"{name} differs between identical runs"
    print("\n[AC10] PASS determinism: result CSVs byte-identical across two "
          "executions of the same manifest")


def test_ac11_snr_affine_invariance():
    rng = Rng(99)
    for i in range(20):
        x = rng.normal((24, 24))
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-5.0, 5.0)
        assert snr(x, a * x + b) == SNR_CAP_DB
    print(f"\n[AC11] PASS SNR affine invariance: snr(x, a*x+b) returned the "
          f"{SNR_CAP_DB:.0f} dB cap for all 20 random (x, a>0, b)")
