"""Property tests on random non-uniform angle sets, odd sides and sides that
are not powers of two: `adjoint` is the transpose of `forward`, and the CSR
`system_matrix` applies the same operator and its transpose."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from sparsect.projector import (Image, Sinogram, uniform_geometry,  # noqa: E402
                                forward, adjoint, system_matrix)

random_cases = given(
    side=st.integers(min_value=3, max_value=41),
    bins_per_pixel=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    angles=st.lists(st.floats(min_value=0.0, max_value=np.pi, exclude_max=True),
                    min_size=1, max_size=12, unique=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def _apply_both(side, bins_per_pixel, angles, seed):
    """Geometry, x, y, forward(x) and adjoint(y) of one random case."""
    geom = uniform_geometry(side, 1, bins_per_pixel=bins_per_pixel)
    geom = geom.with_angles(sorted(angles))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(side, side))
    y = rng.normal(size=(geom.n_views, geom.n_bins))
    hx = forward(Image(x, geom.pixel_spacing), geom).values
    hty = adjoint(Sinogram(geometry=geom, values=y)).values
    return geom, x, y, hx, hty


@settings(max_examples=40, deadline=None, derandomize=True)
@random_cases
def test_dot_product_identity(side, bins_per_pixel, angles, seed):
    _, x, y, hx, hty = _apply_both(side, bins_per_pixel, angles, seed)
    lhs, rhs = np.sum(hx * y), np.sum(x * hty)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(hx) * np.linalg.norm(y)


@settings(max_examples=40, deadline=None, derandomize=True)
@random_cases
def test_system_matrix_matches_forward_and_adjoint(side, bins_per_pixel, angles, seed):
    geom, x, y, hx, hty = _apply_both(side, bins_per_pixel, angles, seed)
    mat = system_matrix(geom)
    assert np.linalg.norm(mat @ x.ravel() - hx.ravel()) <= 1e-12 * np.linalg.norm(hx)
    assert np.linalg.norm(mat.T @ y.ravel() - hty.ravel()) <= 1e-12 * np.linalg.norm(hty)
