import numpy as np
import pytest

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

    def test_rejects_short_detector(self):
        with pytest.raises(ValueError):
            Geometry((0.0,), 8, 0.01, 64, 0.03125)

    def test_with_side_keeps_field_of_view(self):
        geom = uniform_geometry(64, 10)
        half = geom.with_side(32)
        assert half.image_side == 32
        assert half.pixel_spacing == 2 * geom.pixel_spacing
        assert np.array_equal(half.angles, geom.angles)
        assert (half.n_bins, half.det_spacing) == (geom.n_bins, geom.det_spacing)
        assert geom.with_side(64) is geom


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
        # image supported on a few rows/columns triggers the live-line path
        x = np.zeros((64, 64))
        x[30:33, 28:31] = Rng(2).normal((3, 3))
        dense = x + 1e-300  # full support, same values: forces the dense path
        s_sparse = forward(Image(x, geom.pixel_spacing), geom).values
        s_dense = forward(Image(dense, geom.pixel_spacing), geom).values
        assert np.allclose(s_sparse, s_dense, atol=1e-12)
        # sinogram supported on a few bins triggers the sparse-bin scatter
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

    def test_sinogram_rejects_non_finite(self):
        geom = uniform_geometry(16, 5)
        for bad in (np.nan, np.inf):
            values = np.zeros((5, geom.n_bins))
            values[2, 3] = bad
            with pytest.raises(ValueError, match="finite"):
                Sinogram(geometry=geom, values=values)


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
        a = normal_operator(geom, materialize=True)(x)
        b = normal_operator(geom, materialize=False)(x)
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

    def test_rejects_far_probe(self):
        geom = uniform_geometry(64, 10)
        with pytest.raises(ValueError):
            certify_normal_convolution(geom, probe_locations=[(32, 32), (2, 2)])

    def test_rejects_non_power_of_two_side(self):
        geom = uniform_geometry(48, 10)
        with pytest.raises(ValueError):
            certify_normal_convolution(geom)
