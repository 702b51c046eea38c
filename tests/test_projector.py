import re

import numpy as np
import pytest

from sparsect import projector
from sparsect.cli import build_parser
from sparsect.numerics import Rng
from sparsect.projector import (Geometry, Image, Sinogram, uniform_geometry,
                                forward, adjoint, backproject_values,
                                backproject_pixel_driven, system_matrix,
                                normal_operator, certify_normal_convolution)
from sparsect.phantom import Ellipse, Phantom, analytic_sinogram, rasterize


class TestGeometry:
    def test_uniform_geometry_shape(self):
        geom = uniform_geometry(64, 90)
        assert geom.n_views == 90
        assert geom.n_bins % 2 == 1
        assert geom.n_bins * geom.det_spacing >= 64 * geom.pixel_spacing * np.sqrt(2)
        assert np.allclose(geom.angles, np.arange(90) * np.pi / 90)

    def test_bin_centers_symmetric(self):
        geom = uniform_geometry(32, 10)
        c = geom.bin_centers()
        assert np.allclose(c, -c[::-1])
        assert c[geom.n_bins // 2] == 0.0

    def test_rejects_bad_angles(self):
        with pytest.raises(ValueError):
            Geometry((0.0, 0.0), 101, 0.02, 32, 0.0625)
        with pytest.raises(ValueError):
            Geometry((0.0, np.pi), 101, 0.02, 32, 0.0625)

    @pytest.mark.parametrize("args", [
        ((np.nan, np.nan), 201, 0.02, 32, 0.0625),
        ((0.0, np.nan), 201, 0.02, 32, 0.0625),
        ((0.0, 1.0), 201, np.nan, 32, 0.0625),
        ((0.0, 1.0), 201, np.inf, 32, 0.0625),
        ((0.0, 1.0), 201, -0.02, 32, 0.0625),
        ((0.0, 1.0), 201, 0.02, 32, np.nan),
        ((0.0, 1.0), 201, 0.02, 32, 0.0),
        ((0.0, 1.0), 0, 0.02, 0, 0.0625),
        ((0.0, 1.0), 201, 0.02, 0, 0.0625),
    ])
    def test_rejects_non_finite_or_empty_fields(self, args):
        with pytest.raises(ValueError):
            Geometry(*args)

    def test_rejects_short_detector(self):
        with pytest.raises(ValueError):
            Geometry((0.0,), 8, 0.01, 64, 0.03125)

    def test_value_equality_and_hash(self):
        a, b = uniform_geometry(32, 10), uniform_geometry(32, 10)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a.with_angles(tuple(a.angles)) == a
        for other in (uniform_geometry(32, 11),
                      Geometry(a.angles, a.n_bins, a.det_spacing, 16, 2 * a.pixel_spacing),
                      a.with_angles(a.angles[:-1]),
                      Geometry(a.angles, a.n_bins + 2, a.det_spacing,
                               a.image_side, a.pixel_spacing)):
            assert a != other
        assert a != "geometry"


class TestForwardAdjoint:
    def test_dot_test(self):
        geom = uniform_geometry(32, 20)
        rng = Rng(0)
        for _ in range(5):
            x = rng.normal((32, 32))
            y = rng.normal((geom.n_views, geom.n_bins))
            hx = forward(Image(x, geom.pixel_spacing), geom).values
            hty = adjoint(Sinogram(geometry=geom, values=y)).values
            lhs = np.sum(hx * y)
            rhs = np.sum(x * hty)
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(hx) * np.linalg.norm(y)

    def test_forward_matches_analytic_disk(self):
        disk = Phantom([Ellipse(0.0, 0.0, 0.6, 0.6, 0.0, 1.0)])
        geom = uniform_geometry(128, 30)
        exact = analytic_sinogram(disk, geom).values
        disc = forward(rasterize(disk, 128), geom).values
        rel = np.linalg.norm(exact - disc) / np.linalg.norm(exact)
        assert rel < 0.01

    def test_uniform_image_all_angles_equal_mass(self):
        # total measured mass per view is angle-independent for any image
        geom = uniform_geometry(64, 45)
        img = Image(np.abs(Rng(1).normal((64, 64))) + 0.5, geom.pixel_spacing)
        sino = forward(img, geom).values
        mass = sino.sum(axis=1) * geom.det_spacing
        assert np.allclose(mass, mass[0], rtol=1e-2)

    def test_sparse_fast_paths_match_dense(self):
        geom = uniform_geometry(64, 15)
        # image supported on a few rows/columns
        x = np.zeros((64, 64))
        x[30:33, 28:31] = Rng(2).normal((3, 3))
        dense = x + 1e-300  # full support, same values
        s_sparse = forward(Image(x, geom.pixel_spacing), geom).values
        s_dense = forward(Image(dense, geom.pixel_spacing), geom).values
        assert np.allclose(s_sparse, s_dense, atol=1e-12)
        # sinogram supported on a few bins
        y = np.zeros((geom.n_views, geom.n_bins))
        y[:, geom.n_bins // 2 - 1: geom.n_bins // 2 + 2] = 1.0
        b_sparse = backproject_values(y, geom)
        b_dense = backproject_values(y + 1e-300, geom)
        assert np.allclose(b_sparse, b_dense, atol=1e-12)

    def test_shape_validation(self):
        geom = uniform_geometry(32, 5)
        with pytest.raises(ValueError):
            forward(Image(np.zeros((16, 16)), geom.pixel_spacing), geom)
        with pytest.raises(ValueError):
            Sinogram(geometry=geom, values=np.zeros((4, geom.n_bins)))

    @pytest.mark.parametrize("backproject", [backproject_values, backproject_pixel_driven])
    @pytest.mark.parametrize("extra", [(0, 10), (3, 0)], ids=["extra-bins", "extra-views"])
    def test_backprojectors_reject_misshapen_values(self, backproject, extra):
        geom = uniform_geometry(32, 10)
        values = np.ones((geom.n_views + extra[0], geom.n_bins + extra[1]))
        expected = f"({geom.n_views}, {geom.n_bins})"
        with pytest.raises(ValueError, match=re.escape(expected)):
            backproject(values, geom)

    @pytest.mark.parametrize("values, spacing", [
        (np.zeros((0, 0)), -1.0), (np.zeros((0, 0)), 0.1),
        (np.zeros((4, 4)), np.nan), (np.zeros((4, 4)), 0.0), (np.zeros((4, 4)), -0.1),
    ])
    def test_image_rejects_empty_or_bad_spacing(self, values, spacing):
        with pytest.raises(ValueError):
            Image(values, spacing)

    def test_sinogram_rejects_non_finite(self):
        geom = uniform_geometry(16, 5)
        for bad in (np.nan, np.inf):
            values = np.zeros((5, geom.n_bins))
            values[2, 3] = bad
            with pytest.raises(ValueError, match="finite"):
                Sinogram(geometry=geom, values=values)


def _view_coefficients(theta, geom):
    """Joseph driving-axis parameters for one view (reference)."""
    c, s = np.cos(theta), np.sin(theta)
    if abs(c) >= abs(s):
        return True, 1.0 / c, -s / c, geom.pixel_spacing / abs(c)
    return False, 1.0 / s, -c / s, geom.pixel_spacing / abs(s)


def _crossings(theta, geom, bins=None):
    """Unclipped crossing table (drive_rows, j0, frac, weight) of one view,
    j0/frac of shape (n_bins, side), optionally for a subset of bins
    (reference)."""
    side = geom.image_side
    dx = geom.pixel_spacing
    drive_rows, slope_s, slope_c, weight = _view_coefficients(theta, geom)
    half = (side - 1) / 2.0
    axis = (np.arange(side) - half) * dx
    centers = geom.bin_centers()
    if bins is not None:
        centers = centers[bins]
    pos = slope_s * centers[:, None] + slope_c * axis[None, :]
    jf = pos / dx + half
    j0 = np.floor(jf).astype(np.int64)
    frac = jf - j0
    return drive_rows, j0, frac, weight


def _masked_forward(img, geom):
    """Per-view Joseph gather with explicit range masks (reference)."""
    side = geom.image_side
    out = np.zeros((geom.n_views, geom.n_bins))
    for vi, theta in enumerate(geom.angles):
        drive_rows, j0, frac, weight = _crossings(theta, geom)
        grid = img if drive_rows else img.T
        rows = np.arange(side)[None, :]
        j0c = np.clip(j0, 0, side - 1)
        j1c = np.clip(j0 + 1, 0, side - 1)
        v0 = grid[rows, j0c] * ((1.0 - frac) * (j0 >= 0) * (j0 <= side - 1))
        v1 = grid[rows, j1c] * (frac * (j0 >= -1) * (j0 <= side - 2))
        out[vi] = weight * (v0 + v1).sum(axis=1)
    return out


def _masked_backproject(values, geom, bins=None):
    """Per-view transpose scatter with explicit range masks (reference)."""
    side = geom.image_side
    acc = np.zeros(side * side)
    rows = np.arange(side)
    for vi, theta in enumerate(geom.angles):
        drive_rows, j0, frac, weight = _crossings(theta, geom, bins)
        vals = (values[vi] if bins is None else values[vi, bins])[:, None] * weight
        base = (rows[None, :] * side) if drive_rows else rows[None, :]
        stride = 1 if drive_rows else side
        m0 = (j0 >= 0) & (j0 <= side - 1)
        m1 = (j0 >= -1) & (j0 <= side - 2)
        idx0 = base + np.clip(j0, 0, side - 1) * stride
        idx1 = base + np.clip(j0 + 1, 0, side - 1) * stride
        w = np.concatenate([(vals * (1.0 - frac) * m0).ravel(),
                            (vals * frac * m1).ravel()])
        acc += np.bincount(np.concatenate([idx0.ravel(), idx1.ravel()]),
                           weights=w, minlength=side * side)
    return acc.reshape(side, side)


def _masked_pixel_driven(values, geom, side=None):
    """Per-view pixel-driven interpolation with explicit range masks (reference)."""
    side = geom.image_side if side is None else side
    coords = (np.arange(side) - (side - 1) / 2.0) * geom.pixel_spacing
    x, y = coords[None, :], coords[:, None]
    out = np.zeros((side, side))
    off = (geom.n_bins - 1) / 2.0
    n = geom.n_bins
    for vi, theta in enumerate(geom.angles):
        s = (x * np.cos(theta) + y * np.sin(theta)) / geom.det_spacing + off
        b0 = np.floor(s).astype(np.int64)
        frac = s - b0
        row = values[vi]
        out += row[np.clip(b0, 0, n - 1)] * ((1.0 - frac) * (b0 >= 0) * (b0 <= n - 1))
        out += row[np.clip(b0 + 1, 0, n - 1)] * (frac * (b0 >= -1) * (b0 <= n - 2))
    return out


def _masked_system_matrix(geom):
    """CSR matrix of `forward` assembled with explicit range masks (reference)."""
    import scipy.sparse as sp

    side = geom.image_side
    rows, cols, data = [], [], []
    lines = np.arange(side)
    for vi, theta in enumerate(geom.angles):
        drive_rows, j0, frac, weight = _crossings(theta, geom)
        ray_ids = (vi * geom.n_bins + np.arange(geom.n_bins))[:, None]
        base = lines[None, :] * side if drive_rows else lines[None, :]
        stride = 1 if drive_rows else side
        for jj, ww in ((j0, weight * (1.0 - frac)), (j0 + 1, weight * frac)):
            m = (jj >= 0) & (jj <= side - 1)
            rows.append(np.broadcast_to(ray_ids, jj.shape)[m])
            cols.append((base + np.clip(jj, 0, side - 1) * stride)[m])
            data.append(ww[m])
    mat = sp.coo_matrix((np.concatenate(data),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(geom.n_views * geom.n_bins, side * side))
    return mat.tocsr()


def _assert_close_to_max(a, ref, rtol=1e-13):
    assert np.abs(a - ref).max() <= rtol * np.abs(ref).max()


class TestKernelsMatchMaskedReference:
    """The zero-padded kernels against the masked per-view formulas, on
    pitches finer and coarser than a pixel and on angles where the driving
    axis switches (0, pi/4, pi/2, 3pi/4)."""

    @pytest.fixture(params=[(24, 0.5), (24, 4.0), (33, 0.5), (33, 4.0)],
                    ids=lambda p: f"side{p[0]}-bpp{p[1]}")
    def geom(self, request):
        side, bpp = request.param
        extra = np.random.default_rng(side).uniform(0.0, np.pi, 9)
        angles = np.unique(np.concatenate([[0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4],
                                           extra]))
        return uniform_geometry(side, 4, bins_per_pixel=bpp).with_angles(angles)

    def test_forward_bit_identical(self, geom):
        side = geom.image_side
        x = Rng(11).normal((side, side))
        got = forward(Image(x, geom.pixel_spacing), geom).values
        assert np.array_equal(got, _masked_forward(x, geom))

    def test_forward_sparse_image_bit_identical(self, geom):
        side = geom.image_side
        x = np.zeros((side, side))
        x[side // 2 - 1: side // 2 + 2, 3:6] = Rng(12).normal((3, 3))
        got = forward(Image(x, geom.pixel_spacing), geom).values
        assert np.array_equal(got, _masked_forward(x, geom))

    def test_backproject_values(self, geom):
        y = Rng(13).normal((geom.n_views, geom.n_bins))
        _assert_close_to_max(backproject_values(y, geom), _masked_backproject(y, geom))

    def test_backproject_sparse_bins(self, geom):
        bins = np.array([0, geom.n_bins // 2, geom.n_bins - 1])
        y = np.zeros((geom.n_views, geom.n_bins))
        y[:, bins] = Rng(14).normal((geom.n_views, 3))
        _assert_close_to_max(backproject_values(y, geom),
                             _masked_backproject(y, geom, bins))

    @pytest.mark.parametrize("ext", [None, 2], ids=["own-grid", "extended"])
    def test_pixel_driven_bit_identical(self, geom, ext):
        side = None if ext is None else ext * geom.image_side + 1
        y = Rng(15).normal((geom.n_views, geom.n_bins))
        assert np.array_equal(backproject_pixel_driven(y, geom, side),
                              _masked_pixel_driven(y, geom, side))

    def test_system_matrix_bit_identical(self, geom):
        got, ref = system_matrix(geom), _masked_system_matrix(geom)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name


class TestBlockedKernels:
    """Geometries that every kernel cuts into at least three blocks of the
    module's scratch budget, here shrunk so that side 128 splits: the blocked
    kernels against the masked per-view formulas, and against themselves with
    a budget that holds a whole view."""

    BUDGET = 4096

    @pytest.fixture(params=[0.5, 2.0, 4.0], ids=lambda bpp: f"side128-bpp{bpp}")
    def geom(self, request, monkeypatch):
        monkeypatch.setattr(projector, "_BLOCK_CELLS", self.BUDGET)
        extra = np.random.default_rng(128).uniform(0.0, np.pi, 9)
        angles = np.unique(np.concatenate([[0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4],
                                           extra]))
        geom = uniform_geometry(128, 4, bins_per_pixel=request.param).with_angles(angles)
        ext = 2 * geom.image_side + 1

        def blocks(n, width):
            return -(-n // max(1, projector._BLOCK_CELLS // width))
        for n, width in ((geom.n_bins, 128), (128, geom.n_bins), (128, 128), (ext, ext)):
            assert blocks(n, width) >= 3, (n, width)
        return geom

    @staticmethod
    def _whole_views(monkeypatch, fn, *args):
        """`fn(*args)` with a budget that holds any view in one block."""
        with monkeypatch.context() as m:
            m.setattr(projector, "_BLOCK_CELLS", 1 << 40)
            return fn(*args)

    def test_forward(self, geom, monkeypatch):
        x = Rng(21).normal((128, 128))
        img = Image(x, geom.pixel_spacing)
        got = forward(img, geom).values
        assert np.array_equal(got, _masked_forward(x, geom))
        assert np.array_equal(got, self._whole_views(monkeypatch, forward, img, geom).values)

    def test_system_matrix(self, geom):
        got, ref = system_matrix(geom), _masked_system_matrix(geom)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    def test_backproject_values(self, geom, monkeypatch):
        y = Rng(22).normal((geom.n_views, geom.n_bins))
        got = backproject_values(y, geom)
        _assert_close_to_max(got, _masked_backproject(y, geom))
        assert np.array_equal(got, self._whole_views(monkeypatch, backproject_values,
                                                     y, geom))

    @pytest.mark.parametrize("ext", [None, 2], ids=["own-grid", "extended"])
    def test_pixel_driven(self, geom, ext, monkeypatch):
        side = None if ext is None else ext * geom.image_side + 1
        y = Rng(23).normal((geom.n_views, geom.n_bins))
        got = backproject_pixel_driven(y, geom, side)
        assert np.array_equal(got, _masked_pixel_driven(y, geom, side))
        assert np.array_equal(got, self._whole_views(monkeypatch, backproject_pixel_driven,
                                                     y, geom, side))


class TestSystemMatrix:
    def test_matvec_matches_forward(self):
        geom = uniform_geometry(32, 12)
        mat = system_matrix(geom)
        x = Rng(3).normal((32, 32))
        hx = forward(Image(x, geom.pixel_spacing), geom).values
        assert np.allclose(mat @ x.ravel(), hx.ravel(), atol=1e-12)

    def test_rmatvec_matches_adjoint(self):
        geom = uniform_geometry(32, 12)
        mat = system_matrix(geom)
        y = Rng(4).normal((geom.n_views, geom.n_bins))
        hty = adjoint(Sinogram(geometry=geom, values=y)).values
        assert np.allclose(mat.T @ y.ravel(), hty.ravel(), atol=1e-12)

    def test_normal_operator_paths_agree(self):
        geom = uniform_geometry(32, 12)
        x = Rng(5).normal((32, 32))
        a = normal_operator(geom)(x)
        b = adjoint(forward(Image(x, geom.pixel_spacing), geom)).values
        assert np.allclose(a, b, atol=1e-10 * np.abs(a).max())


class TestPixelDrivenBackprojection:
    def test_close_to_adjoint_on_smooth_data(self):
        geom = uniform_geometry(64, 60)
        disk = Phantom([Ellipse(0.0, 0.0, 0.5, 0.5, 0.0, 1.0)])
        sino = analytic_sinogram(disk, geom)
        a = adjoint(sino).values
        p = backproject_pixel_driven(sino.values, geom)
        # same continuous back projection up to the transpose weight factor
        scale = geom.pixel_spacing ** 2 / geom.det_spacing
        rel = np.linalg.norm(a - scale * p) / np.linalg.norm(a)
        assert rel < 0.05

    def test_extended_grid_center_matches(self):
        geom = uniform_geometry(32, 20)
        sino = np.abs(Rng(6).normal((geom.n_views, geom.n_bins)))
        small = backproject_pixel_driven(sino, geom)
        big = backproject_pixel_driven(sino, geom, side=64)
        assert np.allclose(big[16:48, 16:48], small, atol=1e-12)


class TestCertification:
    def test_certifies_at_operating_point(self):
        report = certify_normal_convolution(uniform_geometry(64, 90))
        assert report.shift_invariance_score <= 0.05
        assert abs(report.spectral_slope + 1.0) <= 0.15

    def test_exact_convolution_scores_zero(self):
        geom = uniform_geometry(32, 10)
        kernel = np.exp(-0.1 * (np.arange(32) - 16) ** 2)
        kernel2d = kernel[:, None] * kernel[None, :]

        def conv_op(v):
            return np.fft.ifft2(np.fft.fft2(v) *
                                np.fft.fft2(np.fft.ifftshift(kernel2d))).real
        report = certify_normal_convolution(geom, normal_op=conv_op)
        assert report.shift_invariance_score < 1e-12

    def test_certifies_a_side_that_is_not_a_power_of_two(self):
        # the thresholds of `sparsect certify`, at their defaults
        args = build_parser().parse_args(["certify"])
        report = certify_normal_convolution(uniform_geometry(48, 90))
        assert report.shift_invariance_score <= args.score_max
        assert abs(report.spectral_slope + 1.0) <= args.slope_tol
