import numpy as np
import pytest

from sparsect.numerics import Rng, fft_1d, fft_2d, affine_fit, snr


class TestRng:
    def test_same_seed_same_sequence(self):
        a = Rng(1234).random(10_000)
        b = Rng(1234).random(10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).random(100), Rng(2).random(100))

    def test_batched_equals_sequential(self):
        r1 = Rng(7)
        batch = r1.random(10)
        r2 = Rng(7)
        seq = np.array([r2.random() for _ in range(10)])
        assert np.array_equal(batch, seq)

    def test_random_range(self):
        u = Rng(3).random(10_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_uniform_bounds(self):
        u = Rng(5).uniform(-2.0, 3.0, 1000)
        assert u.min() >= -2.0 and u.max() < 3.0

    def test_integers_inclusive(self):
        v = Rng(9).integers(2, 5, 10_000)
        assert set(np.unique(v)) == {2, 3, 4, 5}

    def test_normal_moments(self):
        z = Rng(11).normal(100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_split_streams_independent_and_deterministic(self):
        root = Rng(42)
        c0 = root.split(0).random(50)
        c1 = root.split(1).random(50)
        assert not np.array_equal(c0, c1)
        assert np.array_equal(c0, Rng(42).split(0).random(50))

    def test_split_unaffected_by_parent_draws(self):
        r = Rng(42)
        r.random(100)
        assert np.array_equal(r.split(0).random(10), Rng(42).split(0).random(10))


class TestFft:
    def test_known_values(self):
        assert np.allclose(fft_1d([1.0, 1.0, 1.0, 1.0]), [4, 0, 0, 0])
        assert np.allclose(fft_1d([1.0, 0.0, 0.0, 0.0]), [1, 1, 1, 1])

    def test_linearity(self):
        rng = Rng(20)
        u, v = rng.normal(64), rng.normal(64)
        lhs = fft_1d(2.5 * u - 1.5 * v)
        rhs = 2.5 * fft_1d(u) - 1.5 * fft_1d(v)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_parseval(self):
        x = Rng(21).normal(256)
        assert np.isclose(np.sum(x * x),
                          np.sum(np.abs(fft_1d(x)) ** 2) / 256, rtol=1e-10)

    def test_matches_numpy(self):
        for n in (64, 12, 7):  # any length, not only powers of two
            x = Rng(0).normal(n) + 1j * Rng(1).normal(n)
            assert np.allclose(fft_1d(x), np.fft.fft(x), atol=1e-10)
            assert np.allclose(fft_1d(x, inverse=True), np.fft.ifft(x), atol=1e-10)

    def test_inverse_roundtrip(self):
        x = Rng(2).normal(128)
        assert np.allclose(fft_1d(fft_1d(x), inverse=True).real, x, atol=1e-12)

    def test_batched_last_axis(self):
        x = Rng(3).normal((5, 32))
        assert np.allclose(fft_1d(x), np.fft.fft(x, axis=-1), atol=1e-10)

    @pytest.mark.parametrize("n", [16, 12, 9])
    def test_real_pair_is_the_zero_padded_half_spectrum(self, n):
        x = Rng(7).normal((3, 5))
        padded = np.zeros((3, n))
        padded[:, :5] = x
        half = fft_1d(x, n=n, real=True)
        assert half.shape == (3, n // 2 + 1)
        assert np.allclose(half, np.fft.fft(padded)[:, :n // 2 + 1], atol=1e-12)
        assert np.allclose(fft_1d(half, inverse=True, n=n, real=True), padded, atol=1e-12)

    def test_length_and_axis(self):
        x = Rng(8).normal((5, 3)) + 1j * Rng(9).normal((5, 3))
        padded = np.zeros((12, 3), dtype=complex)
        padded[:5] = x
        assert np.allclose(fft_1d(x, n=12, axis=0), np.fft.fft(padded, axis=0), atol=1e-12)
        assert np.allclose(fft_1d(fft_1d(x, n=12, axis=0), inverse=True, axis=0),
                           padded, atol=1e-12)

    @pytest.mark.parametrize("shape", [(16, 16), (12, 7), (9, 10)])
    def test_1d_passes_equal_fft_2d_bit_for_bit(self, shape):
        # the order of `rfft2`/`irfft2`: rows then columns, columns then rows
        x = Rng(10).normal((5, 4))
        half = fft_2d(x, shape=shape)
        assert np.array_equal(fft_1d(fft_1d(x, n=shape[1], real=True), n=shape[0], axis=0),
                              half)
        assert np.array_equal(fft_1d(fft_1d(half, inverse=True, n=shape[0], axis=0),
                                     inverse=True, n=shape[1], real=True),
                              fft_2d(half, inverse=True, shape=shape))

    def test_fft_2d_matches_numpy(self):
        for shape in ((16, 16), (8, 12), (12, 7)):
            x = Rng(4).normal(shape)
            half = fft_2d(x)
            assert half.shape == (shape[0], shape[1] // 2 + 1)
            assert np.allclose(half, np.fft.fft2(x)[:, :shape[1] // 2 + 1], atol=1e-10)
            assert np.allclose(fft_2d(half, inverse=True, shape=shape), x, atol=1e-12)

    @pytest.mark.parametrize("shape", [(16, 16), (12, 7), (9, 10)])
    def test_fft_2d_real_mode_is_the_zero_padded_half_spectrum(self, shape):
        x = Rng(6).normal((5, 4))
        padded = np.zeros(shape)
        padded[:5, :4] = x
        half = fft_2d(x, shape=shape)
        assert half.shape == (shape[0], shape[1] // 2 + 1)
        assert np.allclose(half, np.fft.fft2(padded)[:, :shape[1] // 2 + 1], atol=1e-12)
        back = fft_2d(half, inverse=True, shape=shape)
        assert back.shape == shape and np.allclose(back, padded, atol=1e-12)


class TestAffineFit:
    def test_exact_affine_recovery(self):
        x = Rng(5).normal(200)
        a, b = affine_fit(x, 2.0 * x - 3.0)
        assert abs(a - 0.5) < 1e-12
        assert abs(b - (-1.5)) < 1e-12

    def test_identity(self):
        x = Rng(6).normal(50)
        a, b = affine_fit(x, x)
        assert abs(a - 1.0) < 1e-12 and abs(b) < 1e-12

    def test_degenerate_constant_candidate(self):
        x = Rng(7).normal(50)
        a, b = affine_fit(x, np.full(50, 3.7))
        assert a == 0.0
        assert abs(b + x.mean()) < 1e-12

    def test_minimizes_residual(self):
        rng = Rng(8)
        x, xh = rng.normal(100), rng.normal(100)
        a, b = affine_fit(x, xh)
        base = np.linalg.norm(x - a * xh + b)
        for da, db in [(1e-3, 0), (-1e-3, 0), (0, 1e-3), (0, -1e-3)]:
            assert np.linalg.norm(x - (a + da) * xh + (b + db)) >= base

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            affine_fit([1.0], [1.0])
        with pytest.raises(ValueError):
            affine_fit([1.0, 2.0], [1.0, 2.0, 3.0])


def _with(x, index, value):
    y = x.copy()
    y.flat[index] = value
    return y


class TestSnr:
    # min(300, nan) is 300: without the check each case scores the cap
    @pytest.mark.parametrize("case", ["all-nan", "candidate-nan", "reference-nan",
                                      "candidate-inf"])
    def test_rejects_non_finite_inputs(self, case):
        x = Rng(9).normal((8, 8))
        ref, cand = {"all-nan": (x, np.full_like(x, np.nan)),
                     "candidate-nan": (x, _with(x, 5, np.nan)),
                     "reference-nan": (_with(x, 5, np.nan), x),
                     "candidate-inf": (x, _with(x, 5, np.inf))}[case]
        with pytest.raises(ValueError, match="snr needs finite inputs"):
            snr(ref, cand)
