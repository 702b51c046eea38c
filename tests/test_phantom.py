import numpy as np
import pytest

from sparsect.numerics import Rng
from sparsect.phantom import (Ellipse, Phantom, random_phantom, rasterize,
                              ellipse_line_integrals, analytic_sinogram,
                              save_phantom, load_phantom)
from sparsect.projector import uniform_geometry, forward


class TestRandomPhantom:
    def test_count_range_and_containment(self):
        root = Rng(0)
        for i in range(20):
            ph = random_phantom(root.split(i))
            assert 3 <= len(ph.ellipses) <= 8
            for e in ph.ellipses:
                r = np.hypot(e.cx, e.cy)
                assert r + max(e.a, e.b) <= ph.fov_radius + 1e-12
                assert 0.1 <= abs(e.rho) <= 1.0
                assert 0.05 <= e.a <= 0.4 and 0.05 <= e.b <= 0.4

    def test_deterministic(self):
        p1 = random_phantom(Rng(3).split(5))
        p2 = random_phantom(Rng(3).split(5))
        assert [vars(a) for a in p1.ellipses] == [vars(b) for b in p2.ellipses]

    def test_validation(self):
        with pytest.raises(ValueError):
            Ellipse(0, 0, -1, 1, 0, 1)
        with pytest.raises(ValueError):
            Phantom([])
        for field in range(6):
            values = [0.0, 0.0, 0.3, 0.2, 0.0, 1.0]
            values[field] = np.nan
            with pytest.raises(ValueError, match="finite"):
                Ellipse(*values)
        for fov_radius in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="fov_radius"):
                Phantom([Ellipse(0, 0, 0.3, 0.2, 0, 1)], fov_radius)


class TestRasterize:
    def test_matches_pointwise_indicator(self):
        e = Ellipse(0.2, -0.1, 0.3, 0.15, 0.7, 0.8)
        img = rasterize(Phantom([e]), 32)
        spacing = img.pixel_spacing
        coords = (np.arange(32) - 15.5) * spacing
        expected = np.zeros((32, 32))
        for i, y in enumerate(coords):
            for j, x in enumerate(coords):
                dx, dy = x - e.cx, y - e.cy
                c, s = np.cos(e.angle), np.sin(e.angle)
                u, v = dx * c + dy * s, -dx * s + dy * c
                inside = (u / e.a) ** 2 + (v / e.b) ** 2 <= 1.0
                if inside and x * x + y * y <= 1.0:
                    expected[i, j] = e.rho
        assert np.array_equal(img.values, expected)

    def test_zero_outside_fov_disk(self):
        ph = random_phantom(Rng(1))
        img = rasterize(ph, 64)
        coords = (np.arange(64) - 31.5) * img.pixel_spacing
        outside = coords[None, :] ** 2 + coords[:, None] ** 2 > 1.0
        assert np.all(img.values[outside] == 0.0)

    def test_rejects_tiny_side(self):
        with pytest.raises(ValueError):
            rasterize(random_phantom(Rng(0)), 8)


class TestLineIntegrals:
    def test_centered_circle_closed_form(self):
        e = Ellipse(0.0, 0.0, 0.5, 0.5, 0.0, 2.0)
        s = np.linspace(-0.7, 0.7, 41)
        vals = ellipse_line_integrals(e, [0.3], s)[0]
        expected = 2.0 * 2.0 * np.sqrt(np.maximum(0.25 - s ** 2, 0.0))
        assert np.allclose(vals, expected, atol=1e-14)

    def test_circle_rotation_invariant(self):
        e = Ellipse(0.0, 0.0, 0.4, 0.4, 0.0, 1.0)
        s = np.linspace(-0.5, 0.5, 21)
        vals = ellipse_line_integrals(e, np.linspace(0, 3, 7), s)
        assert np.allclose(vals, vals[0], atol=1e-14)

    def test_shifted_center_moves_profile(self):
        base = Ellipse(0.0, 0.0, 0.3, 0.2, 0.5, 1.0)
        shifted = Ellipse(0.1, -0.2, 0.3, 0.2, 0.5, 1.0)
        theta = 0.8
        s = np.linspace(-0.9, 0.9, 181)
        ds = 0.1 * np.cos(theta) - 0.2 * np.sin(theta)
        v_base = ellipse_line_integrals(base, [theta], s - ds)[0]
        v_shift = ellipse_line_integrals(shifted, [theta], s)[0]
        assert np.allclose(v_base, v_shift, atol=1e-12)

    def test_mass_conservation(self):
        # integral of the projection over s equals the ellipse mass pi*a*b*rho
        e = Ellipse(0.05, -0.1, 0.35, 0.2, 1.1, 0.7)
        s = np.linspace(-1.0, 1.0, 20001)
        for theta in (0.0, 0.4, 1.3):
            vals = ellipse_line_integrals(e, [theta], s)[0]
            mass = np.trapezoid(vals, s)
            assert abs(mass - np.pi * e.a * e.b * e.rho) < 1e-6


class TestAnalyticSinogram:
    def test_additive_over_ellipses(self):
        geom = uniform_geometry(32, 12)
        e1 = Ellipse(0.1, 0.0, 0.3, 0.2, 0.0, 1.0)
        e2 = Ellipse(-0.2, 0.1, 0.2, 0.2, 0.3, -0.5)
        s12 = analytic_sinogram(Phantom([e1, e2]), geom).values
        s1 = analytic_sinogram(Phantom([e1]), geom).values
        s2 = analytic_sinogram(Phantom([e2]), geom).values
        assert np.allclose(s12, s1 + s2, atol=1e-14)

    def test_consistent_with_discrete_projector(self):
        ph = random_phantom(Rng(4))
        geom = uniform_geometry(128, 40)
        exact = analytic_sinogram(ph, geom).values
        disc = forward(rasterize(ph, 128), geom).values
        rel = np.linalg.norm(exact - disc) / np.linalg.norm(exact)
        assert rel < 0.05


class TestPhantomIo:
    def test_roundtrip(self, tmp_path):
        ph = random_phantom(Rng(6))
        path = tmp_path / "p.txt"
        save_phantom(ph, path)
        back = load_phantom(path)
        assert back.fov_radius == ph.fov_radius
        assert len(back.ellipses) == len(ph.ellipses)
        for a, b in zip(ph.ellipses, back.ellipses):
            assert vars(a) == vars(b)
