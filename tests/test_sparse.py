import numpy as np
import pytest

from sparsect.numerics import Rng
from sparsect.projector import uniform_geometry, Image, Sinogram, forward, system_matrix
from sparsect.phantom import random_phantom, analytic_sinogram
from sparsect.fbp import fbp_reconstruct, subsample_views
from sparsect import sparse
from sparsect.sparse import (SolverConfig, SolverError, soft_threshold,
                             wavelet_analysis, wavelet_synthesis, estimate_lipschitz,
                             synthesis_objective, ista_reconstruct,
                             tv_admm_reconstruct, grad_pairs, grad_pairs_adjoint)
from sparsect.pipeline import snr


class TestSoftThreshold:
    def test_values(self):
        v = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        out = soft_threshold(v, 1.0)
        assert np.array_equal(out, [-2.0, 0.0, 0.0, 0.0, 2.0])

    def test_zero_threshold_identity(self):
        v = Rng(0).normal(20)
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            soft_threshold([1.0], -0.1)


class TestHaar:
    def test_roundtrip_exact(self):
        x = Rng(1).normal((64, 64))
        for levels in (1, 2, 3):
            back = wavelet_synthesis(wavelet_analysis(x, levels), levels)
            assert np.allclose(back, x, atol=1e-13)

    def test_orthonormal_parseval(self):
        x = Rng(2).normal((32, 32))
        c = wavelet_analysis(x, 3)
        assert abs(np.linalg.norm(c) - np.linalg.norm(x)) < 1e-12

    def test_constant_image_concentrates_in_approx(self):
        x = np.full((16, 16), 2.0)
        c = wavelet_analysis(x, 2)
        assert np.allclose(c[:4, :4], 8.0)   # 2 * 2^levels
        detail = c.copy()
        detail[:4, :4] = 0.0
        assert np.abs(detail).max() < 1e-13

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            wavelet_analysis(np.zeros((20, 20)), 3)

    def test_synthesis_rejects_bad_side(self):
        with pytest.raises(ValueError, match="not divisible by 2"):
            wavelet_synthesis(np.zeros((20, 20)), 3)


class TestGradPairs:
    def test_adjoint_dot_test(self):
        rng = Rng(3)
        x = rng.normal((17, 17))
        gx, gy = rng.normal((17, 17)), rng.normal((17, 17))
        ax, ay = grad_pairs(x)
        lhs = np.sum(ax * gx) + np.sum(ay * gy)
        rhs = np.sum(x * grad_pairs_adjoint(gx, gy))
        assert abs(lhs - rhs) < 1e-10

    def test_constant_has_zero_gradient(self):
        gx, gy = grad_pairs(np.full((8, 8), 3.0))
        assert not gx.any() and not gy.any()


class TestLipschitz:
    def test_upper_bounds_spectral_norm(self):
        geom = uniform_geometry(32, 20)
        L = estimate_lipschitz(geom)
        mat = system_matrix(geom)
        # power iteration on H*H; it also bounds W*H*HW (W orthonormal)
        dense = (mat.T @ mat).toarray()
        true_l = np.linalg.eigvalsh(dense).max()
        assert L >= true_l * 0.999          # 1.05 safety factor covers slack
        assert L <= true_l * 1.10

    def test_known_spectrum_operator(self):
        geom = uniform_geometry(32, 10)
        L = estimate_lipschitz(geom, op=lambda v: 4.0 * v)
        assert abs(L - 4.2) < 1e-6          # 4 * 1.05


def _instance(seed=0, side=32, n_views=30, factor=3):
    geom = uniform_geometry(side, n_views)
    ph = random_phantom(Rng(seed))
    return subsample_views(analytic_sinogram(ph, geom), factor)


class TestIsta:
    def test_objective_monotone(self):
        sino = _instance()
        hist = []
        ista_reconstruct(sino, SolverConfig(lam=2e-3, max_iters=60, tol=0.0),
                         history=hist)
        objs = [o for _, o in hist]
        assert all(objs[k + 1] <= objs[k] * (1 + 1e-12) for k in range(len(objs) - 1))

    def test_zero_lambda_descends_data_term(self):
        sino = _instance(seed=1)
        hist = []
        img = ista_reconstruct(sino, SolverConfig(lam=0.0, max_iters=80, tol=0.0),
                               history=hist)
        r = forward(img, sino.geometry).values - sino.values
        assert hist[-1][1] == pytest.approx(0.5 * np.sum(r * r))
        assert hist[-1][1] < 0.05 * hist[0][1]

    def test_bad_step_raises(self):
        sino = _instance(seed=2)
        with pytest.raises(SolverError):
            # a step 50x too large must trip the divergence guard
            ista_reconstruct(sino, SolverConfig(lam=1e-3, max_iters=60,
                                                step_inverse=0.3, tol=0.0))

    def test_fista_reaches_lower_objective(self):
        sino = _instance(seed=3)
        h_i, h_f = [], []
        ista_reconstruct(sino, SolverConfig(lam=2e-3, max_iters=80, tol=0.0),
                         history=h_i)
        ista_reconstruct(sino, SolverConfig(lam=2e-3, max_iters=80, tol=0.0,
                                            fista=True), history=h_f)
        assert min(o for _, o in h_f) <= min(o for _, o in h_i)

    def test_fixed_point_of_soft_threshold(self):
        # returned image equals W a with a thresholded: recompute the objective
        sino = _instance(seed=4)
        cfg = SolverConfig(lam=5e-3, max_iters=40, tol=0.0)
        hist = []
        img = ista_reconstruct(sino, cfg, history=hist)
        a = wavelet_analysis(img.values, cfg.levels)
        assert synthesis_objective(sino, a, cfg.lam, cfg.levels) == \
            pytest.approx(hist[-1][1])

    def test_fista_without_history_skips_objective(self, monkeypatch):
        calls = []
        original = sparse.synthesis_objective

        def counted(*args):
            calls.append(1)
            return original(*args)
        monkeypatch.setattr(sparse, "synthesis_objective", counted)
        sino = _instance(seed=5)
        cfg = SolverConfig(lam=2e-3, max_iters=30, tol=0.0, fista=True)
        img = ista_reconstruct(sino, cfg)
        assert len(calls) == 0
        hist = []
        img_hist = ista_reconstruct(sino, cfg, history=hist)
        assert len(calls) == len(hist) == 30
        assert np.array_equal(img.values, img_hist.values)

class TestTvAdmm:
    def test_lambda_zero_matches_least_squares(self):
        # well-posed full-view instance: TV with lam=0 is plain least squares;
        # 24 is a side that is not a power of two
        for side in (32, 24):
            geom = uniform_geometry(side, 60)
            ph = random_phantom(Rng(5))
            sino = analytic_sinogram(ph, geom)
            img = tv_admm_reconstruct(sino, SolverConfig(lam=0.0, cg_iters=40,
                                                         cg_tol=1e-9))
            mat = system_matrix(geom)
            x_ls, *_ = np.linalg.lstsq((mat.T @ mat).toarray(),
                                       mat.T @ sino.values.ravel(), rcond=None)
            rel = np.linalg.norm(img.values.ravel() - x_ls) / np.linalg.norm(x_ls)
            assert rel < 1e-4

    def test_beats_fbp_on_sparse_views(self):
        geom = uniform_geometry(32, 60)
        ph = random_phantom(Rng(6))
        full = analytic_sinogram(ph, geom)
        truth = fbp_reconstruct(full)
        sub = subsample_views(full, 5)
        fbp_snr = snr(truth, fbp_reconstruct(sub))
        tv = tv_admm_reconstruct(sub, SolverConfig(lam=3e-3, rho=0.1,
                                                   max_iters=40, cg_iters=15,
                                                   cg_tol=1e-7, tol=1e-6))
        assert snr(truth, tv) > fbp_snr + 1.0

    def test_history_and_residual_decrease(self):
        sino = _instance(seed=7, factor=2)
        hist = []
        tv_admm_reconstruct(sino, SolverConfig(lam=2e-3, rho=0.1, max_iters=30,
                                               cg_iters=15, tol=0.0), history=hist)
        assert len(hist) == 30
        primal = [row[2] for row in hist]
        assert primal[-1] < primal[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(rho=0.0)
        with pytest.raises(ValueError):
            SolverConfig(cg_tol=-1e-8)
        with pytest.raises(ValueError):
            SolverConfig(rho=float("nan"))
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(cg_iters=0)
