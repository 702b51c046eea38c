import gc
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse

from sparsect.numerics import Rng
from sparsect import projector
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

    def test_levels_checked_before_any_operator_work(self, monkeypatch):
        def no_operator(*args):
            raise AssertionError("operator built before the levels check")
        monkeypatch.setattr(sparse, "normal_operator", no_operator)
        with pytest.raises(ValueError, match="side 32 not divisible by 2\\^6"):
            ista_reconstruct(_instance(), SolverConfig(levels=6))

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
            hist = []
            img = tv_admm_reconstruct(sino, SolverConfig(lam=0.0, cg_iters=40,
                                                         cg_tol=1e-9), history=hist)
            mat = system_matrix(geom)
            x_ls, *_ = np.linalg.lstsq((mat.T @ mat).toarray(),
                                       mat.T @ sino.values.ravel(), rcond=None)
            rel = np.linalg.norm(img.values.ravel() - x_ls) / np.linalg.norm(x_ls)
            assert rel < 1e-4
            # one history row for the one CG solve; no splitting, no primal or dual
            [(k, objective, primal, dual, steps, resid)] = hist
            assert (k, primal, dual) == (0, 0.0, 0.0) and steps >= 1 and resid <= 1e-9
            r = mat @ img.values.ravel() - sino.values.ravel()
            assert objective == pytest.approx(0.5 * np.sum(r * r), rel=1e-9)

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
            SolverConfig(rho=float("inf"))
        with pytest.raises(ValueError):
            SolverConfig(lam=float("inf"))
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(cg_iters=0)
        with pytest.raises(ValueError, match="levels"):
            SolverConfig(levels=-1)
        for bad in (float("inf"), float("nan"), 0.0):
            with pytest.raises(ValueError, match="step_inverse"):
                SolverConfig(step_inverse=bad)

    def test_lambda_zero_reports_cg_failure(self):
        # ten CG steps cannot reach 1e-14 on this ill-posed 5-view instance
        sino = _instance(seed=4, factor=6)
        with pytest.raises(SolverError, match="CG failed to converge"):
            tv_admm_reconstruct(sino, SolverConfig(lam=0.0, cg_iters=1, cg_tol=1e-14))

    def test_lambda_zero_failure_keeps_its_history_row(self):
        # the row is written before the error, so a failed solve still reports it
        sino = _instance(seed=4, factor=6)
        hist = []
        with pytest.raises(SolverError, match="CG failed to converge"):
            tv_admm_reconstruct(sino, SolverConfig(lam=0.0, cg_iters=1, cg_tol=1e-14),
                                history=hist)
        [(k, objective, primal, dual, steps, resid)] = hist
        assert (k, primal, dual, steps) == (0, 0.0, 0.0, 10)
        assert resid > 1e-14 and objective > 0.0


TV_PIPELINE = dict(lam=3e-3, rho=0.1, max_iters=50, cg_iters=15, cg_tol=1e-7, tol=0.0)


class TestCarriedResidual:
    def test_pcg_with_r0_matches_pcg_without(self):
        geom = uniform_geometry(32, 12)
        nop = projector.normal_operator(geom)
        b = Rng(1).normal((32, 32))
        x0 = Rng(2).normal((32, 32))
        precond = sparse._fourier_preconditioner(sparse._impulse_spectrum(geom), 0.1)
        plain = sparse._pcg(nop, b, x0, precond, 8, 1e-12)
        carried = sparse._pcg(nop, b, x0, precond, 8, 1e-12, r0=b - nop(x0))
        for got, want in zip(carried, plain):
            assert np.array_equal(got, want)

    def test_carried_residual_stays_the_true_residual(self, monkeypatch):
        calls = []
        pcg = sparse._pcg

        def recording(apply_a, b, x0, precond, iters, tol, r0=None):
            out = pcg(apply_a, b, x0, precond, iters, tol, r0)
            calls.append((apply_a, b, out[0], out[2].copy()))
            return out
        monkeypatch.setattr(sparse, "_pcg", recording)
        sino = _instance(seed=8, side=64, n_views=90, factor=7)
        tv_admm_reconstruct(sino, SolverConfig(**TV_PIPELINE))
        assert len(calls) == 50
        apply_a, rhs, x, r = calls[-1]
        assert np.linalg.norm(r - (rhs - apply_a(x))) <= 1e-10 * np.linalg.norm(rhs)


class TestInexactAdmm:
    """CG's tolerance follows the change of the x-update's right-hand side."""

    @staticmethod
    def _solve(factor):
        geom = uniform_geometry(64, 90)
        full = analytic_sinogram(random_phantom(Rng(8)), geom)
        hist = []
        img = tv_admm_reconstruct(subsample_views(full, factor),
                                  SolverConfig(**TV_PIPELINE), history=hist)
        return snr(fbp_reconstruct(full), img), hist

    @pytest.mark.parametrize("factor, max_steps", [(7, 200), (20, 400)])
    def test_fewer_cg_steps_same_snr(self, monkeypatch, factor, max_steps):
        db, hist = self._solve(factor)
        assert sum(row[4] for row in hist) <= max_steps
        monkeypatch.setattr(sparse, "CG_FORCING", 0.0)   # every x-update to cg_tol
        exact_db, exact_hist = self._solve(factor)
        assert sum(row[4] for row in exact_hist) > max_steps
        assert abs(db - exact_db) <= 0.05

    def test_history_reports_cg_steps_and_residual(self):
        cfg = SolverConfig(**TV_PIPELINE)
        _, hist = self._solve(7)
        assert len(hist) == cfg.max_iters
        for _, _, _, _, cg_steps, cg_resid in hist:   # six fields
            assert 1 <= cg_steps <= cfg.cg_iters
            assert cg_resid >= 0
        # the first x-update is solved to cg_tol, or stops at the cap
        assert hist[0][5] <= cfg.cg_tol or hist[0][4] == cfg.cg_iters


class TestGeometryCache:
    """The per-geometry caches behind `normal_operator` and both solvers."""

    TV = SolverConfig(lam=3e-3, rho=0.1, max_iters=10, cg_iters=10, cg_tol=1e-7, tol=0.0)
    FISTA = SolverConfig(lam=2e-3, max_iters=20, tol=0.0, fista=True)

    def _solves(self, sino):
        return (tv_admm_reconstruct(sino, self.TV).values,
                ista_reconstruct(sino, self.FISTA).values)

    @staticmethod
    def _spy_builds(monkeypatch):
        """Record each geometry `system_matrix` builds, with a weak reference
        to the matrix."""
        builds = []
        build = projector.system_matrix

        def spy(geom):
            mat = build(geom)
            builds.append((geom, weakref.ref(mat)))
            return mat
        monkeypatch.setattr(projector, "system_matrix", spy)
        return builds

    def test_cold_warm_and_evicted_solves_agree(self, monkeypatch, cold_caches):
        sino = _instance(seed=9, factor=5)
        others = [_instance(seed=9, n_views=36, factor=4), _instance(seed=9, n_views=40, factor=5)]
        builds = self._spy_builds(monkeypatch)
        cold = self._solves(sino)
        warm = self._solves(sino)
        for other in others:
            self._solves(other)
        evicted = self._solves(sino)
        assert [geom for geom, _ in builds] == [s.geometry for s in [sino, *others, sino]]
        for a, b, c in zip(cold, warm, evicted):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_system_matrix_built_once_per_geometry(self, monkeypatch, cold_caches):
        builds = self._spy_builds(monkeypatch)
        sino = _instance(seed=10, factor=5)
        for _ in range(2):
            self._solves(sino)
        assert [geom for geom, _ in builds] == [sino.geometry]
        for cached in (projector.normal_operator, sparse._impulse_spectrum,
                       sparse._step_bound):
            assert cached.cache_info().currsize == 1

    def test_a_third_geometry_drops_the_least_recently_used(self, monkeypatch, cold_caches):
        first, second, third = (uniform_geometry(32, n) for n in (10, 11, 12))
        builds = self._spy_builds(monkeypatch)
        for geom in (first, second, first, third):   # second is now the oldest
            projector.normal_operator(geom)
        gc.collect()
        alive = {geom.n_views: ref() is not None for geom, ref in builds}
        assert alive == {10: True, 11: False, 12: True}
        for geom in (first, third):
            projector.normal_operator(geom)
        assert len(builds) == 3

    def test_cached_arrays_are_read_only(self, cold_caches):
        sino = _instance(seed=11, factor=5)
        self._solves(sino)
        geom = sino.geometry
        cells = [c.cell_contents for c in projector.normal_operator(geom).__closure__]
        mats = [m for m in cells if scipy.sparse.issparse(m)]
        assert len(mats) == 2   # the matrix and its transpose
        arrays = [sparse._impulse_spectrum(geom)]
        for mat in mats:
            arrays += [mat.data, mat.indices, mat.indptr]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert isinstance(sparse._step_bound(geom), float)

    def test_two_geometries_from_two_threads(self, monkeypatch, cold_caches):
        # a default run's two factors: 64^2 at 13 and 5 views
        sinos = [_instance(seed=12, side=64, n_views=90, factor=f) for f in (7, 20)]
        sequential = [self._solves(sino) for sino in sinos]
        cold_caches()
        builds = self._spy_builds(monkeypatch)
        barrier = threading.Barrier(2, timeout=120)
        results = [[], []]

        def work(i):
            try:
                for _ in range(3):
                    barrier.wait()   # each round's solves start together
                    results[i].append(self._solves(sinos[i]))
            except BaseException:
                barrier.abort()
                raise
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive()
        assert sorted(geom.n_views for geom, _ in builds) == [5, 13]
        for got, want in zip(results, sequential):
            assert len(got) == 3
            for images in got:
                for a, b in zip(images, want):
                    assert np.array_equal(a, b)

    def test_more_threads_than_cores_on_more_geometries_than_entries(self, cold_caches):
        # three geometries cycle through two entries, so every thread keeps
        # evicting and rebuilding what the others use
        geoms = [uniform_geometry(16, n) for n in (4, 5, 6)]
        x = Rng(13).normal((16, 16))
        want = [projector.normal_operator(g)(x) for g in geoms]
        cold_caches()
        right = [0] * 4

        def work(i):
            for k in range(30):
                g = (i + k) % 3
                right[i] += np.array_equal(projector.normal_operator(geoms[g])(x), want[g])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert right == [30] * 4
        assert projector.normal_operator.cache_info().currsize == 2
