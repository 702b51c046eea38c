import tracemalloc

import numpy as np
import pytest

from sparsect.numerics import Rng
from sparsect.projector import uniform_geometry, Sinogram, backproject_pixel_driven
from sparsect.phantom import Ellipse, Phantom, rasterize, analytic_sinogram
from sparsect.fbp import (APODIZATIONS, RampFilter, ramp_tap, make_ramp, filter_views,
                          fbp_reconstruct, deconvolution_form, subsample_views,
                          _apod_window)
from sparsect.pipeline import snr


def _filter_views_one_block(values, filt):
    """Reference: every view's padded row in one complex transform pair."""
    n_views, n_bins = values.shape
    half = len(filt.taps) // 2
    size = 1 << (max(2 * n_bins, n_bins + half + 1) - 1).bit_length()
    kernel = np.zeros(size)
    kernel[: half + 1] = filt.taps[half:]
    kernel[size - half:] = filt.taps[:half]
    resp = np.fft.fft(kernel).real * _apod_window(np.fft.fftfreq(size) * 2.0,
                                                  filt.apodization)
    padded = np.zeros((n_views, size))
    padded[:, :n_bins] = values
    return np.fft.ifft(np.fft.fft(padded) * resp).real[:, :n_bins] * filt.det_spacing


def _deconvolution_full_grid(sino, apodization):
    """Reference: the 2-D filter as one complex transform pair on the full
    grid, with the back projection centred in it."""
    geom = sino.geometry
    side = geom.image_side
    ext = 2 * side
    bp = backproject_pixel_driven(sino.values, geom, side=ext) * (np.pi / geom.n_views)
    size = 2 * ext
    padded = np.zeros((size, size))
    lo = (size - ext) // 2
    padded[lo:lo + ext, lo:lo + ext] = bp
    f = np.fft.fftfreq(size, d=geom.pixel_spacing)
    fr = np.sqrt(f[:, None] ** 2 + f[None, :] ** 2)
    f_nyq = 0.5 / geom.pixel_spacing
    resp = fr * _apod_window(fr / f_nyq, apodization) * (fr <= f_nyq)
    out = np.fft.ifft2(np.fft.fft2(padded) * resp).real
    crop = lo + (ext - side) // 2
    return out[crop:crop + side, crop:crop + side]


def _peak_mib(fn):
    """Peak traced allocation of one call, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestRampFilter:
    def test_tap_closed_form(self):
        d = 0.05
        assert ramp_tap(0, d) == 1.0 / (4 * d * d)
        assert ramp_tap(2, d) == 0.0
        assert ramp_tap(4, d) == 0.0
        assert np.isclose(ramp_tap(1, d), -1.0 / (np.pi ** 2 * d * d))
        assert np.isclose(ramp_tap(3, d), -1.0 / (np.pi ** 2 * 9 * d * d))
        assert ramp_tap(-3, d) == ramp_tap(3, d)

    def test_make_ramp_symmetric(self):
        filt = make_ramp(33, 0.1)
        assert len(filt.taps) == 65
        assert np.array_equal(filt.taps, filt.taps[::-1])

    @pytest.mark.parametrize("n_bins", [33, 40])
    def test_make_ramp_equals_scalar_taps(self, n_bins):
        d = 0.0371
        filt = make_ramp(n_bins, d)
        ref = [ramp_tap(n, d) for n in range(-(n_bins - 1), n_bins)]
        assert np.array_equal(filt.taps, ref)

    def test_frequency_response_is_abs_f(self):
        # DTFT of the band-limited ramp at frequency f is |f| for |f| <= nyquist
        d = 0.04
        filt = make_ramp(257, d)
        offs = np.arange(-256, 257)
        for f in (0.1 / d, 0.25 / d, 0.4 / d):
            resp = d * np.sum(filt.taps * np.cos(2 * np.pi * f * offs * d))
            assert abs(resp - f) < 1e-2 * (0.5 / d)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_ramp(4, 0.1)
        with pytest.raises(ValueError):
            RampFilter(taps=np.zeros(3), det_spacing=0.1, apodization="gauss")
        with pytest.raises(ValueError):
            RampFilter(taps=np.zeros(4), det_spacing=0.1)


class TestFilterViews:
    def test_matches_direct_convolution(self):
        rng = Rng(0)
        values = rng.normal((3, 41))
        filt = make_ramp(41, 0.07)
        out = filter_views(values, filt)
        for v in range(3):
            full = np.convolve(values[v], filt.taps) * 0.07
            start = len(filt.taps) // 2
            assert np.allclose(out[v], full[start:start + 41], atol=1e-10)

    # 91 bins pad to 256 (256 views a block), 300 bins to 1024 (64 views a
    # block); 361 views leave a partial last block in both
    @pytest.mark.parametrize("n_bins", [91, 300])
    @pytest.mark.parametrize("n_views", [1, 5, 13, 90, 361])
    @pytest.mark.parametrize("apodization", APODIZATIONS)
    def test_blocks_equal_one_block_bit_for_bit(self, n_bins, n_views, apodization):
        values = Rng(n_views).normal((n_views, n_bins))
        filt = make_ramp(n_bins, 0.03, apodization)
        assert np.array_equal(filter_views(values, filt),
                              _filter_views_one_block(values, filt))

    def test_hann_tapers_nyquist(self):
        values = np.cos(np.pi * np.arange(64))[None, :]  # pure Nyquist tone
        ramp = make_ramp(64 + 1, 0.1, "none")
        hann = make_ramp(64 + 1, 0.1, "hann")
        e_none = np.linalg.norm(filter_views(values, ramp))
        e_hann = np.linalg.norm(filter_views(values, hann))
        assert e_hann < 0.05 * e_none


class TestFbpReconstruct:
    def test_disk_recovery(self):
        disk = Phantom([Ellipse(0.0, 0.0, 0.55, 0.55, 0.0, 1.0)])
        geom = uniform_geometry(128, 180)
        rec = fbp_reconstruct(analytic_sinogram(disk, geom))
        truth = rasterize(disk, 128)
        assert snr(truth, rec) > 20.0
        # absolute level too, not just up to affine calibration
        inside = truth.values > 0
        assert abs(rec.values[inside].mean() - 1.0) < 0.05

    def test_mismatched_filter_spacing_rejected(self):
        geom = uniform_geometry(32, 10)
        sino = Sinogram(geometry=geom, values=np.zeros((10, geom.n_bins)))
        with pytest.raises(ValueError):
            fbp_reconstruct(sino, make_ramp(geom.n_bins, geom.det_spacing * 2))


class TestDeconvolutionForm:
    def test_agrees_with_measurement_domain_fbp(self):
        ph = Phantom([Ellipse(0.1, -0.05, 0.4, 0.3, 0.4, 1.0),
                      Ellipse(-0.2, 0.15, 0.2, 0.15, 1.2, -0.5)])
        geom = uniform_geometry(64, 90)
        sino = analytic_sinogram(ph, geom)
        a = fbp_reconstruct(sino).values
        b = deconvolution_form(sino).values
        c = slice(16, 48)  # central region, away from the FOV boundary
        rel = np.linalg.norm(a[c, c] - b[c, c]) / np.linalg.norm(a[c, c])
        assert rel < 0.05

    @pytest.mark.parametrize("side", [32, 33])   # 33: odd side and odd crop
    @pytest.mark.parametrize("apodization", APODIZATIONS)
    def test_real_transform_matches_full_grid_complex_one(self, side, apodization):
        ph = Phantom([Ellipse(0.1, -0.05, 0.4, 0.3, 0.4, 1.0),
                      Ellipse(-0.2, 0.15, 0.2, 0.15, 1.2, -0.5)])
        sino = analytic_sinogram(ph, uniform_geometry(side, 30))
        ref = _deconvolution_full_grid(sino, apodization)
        out = deconvolution_form(sino, apodization).values
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_direct_inversions_bound_their_memory():
    # 18.5 and 7.2 MiB with one complex transform of the whole 512^2 grid
    # and of the whole (180, 1024) padded sinogram
    sino = analytic_sinogram(Phantom([Ellipse(0.0, 0.0, 0.5, 0.4, 0.3, 1.0)]),
                             uniform_geometry(128, 180))
    assert _peak_mib(lambda: deconvolution_form(sino)) <= 10.0
    assert _peak_mib(lambda: fbp_reconstruct(sino)) <= 4.0


def test_deconvolution_grid_is_twice_the_extended_side_at_any_side():
    # 1.51 MiB on the power of two (256) above 2 * ext = 132
    sino = analytic_sinogram(Phantom([Ellipse(0.0, 0.0, 0.5, 0.4, 0.3, 1.0)]),
                             uniform_geometry(33, 30))
    assert _peak_mib(lambda: deconvolution_form(sino)) <= 0.6


class TestSubsampleViews:
    def test_keeps_every_factor_th_view(self):
        geom = uniform_geometry(32, 90)
        values = np.arange(90)[:, None] * np.ones((1, geom.n_bins))
        sub = subsample_views(Sinogram(geometry=geom, values=values), 7)
        assert sub.geometry.n_views == 13
        assert np.array_equal(sub.values[:, 0], np.arange(0, 90, 7))
        assert np.allclose(sub.geometry.angles, geom.angles[::7])

    def test_factor_validation(self):
        geom = uniform_geometry(32, 10)
        sino = Sinogram(geometry=geom, values=np.zeros((10, geom.n_bins)))
        with pytest.raises(ValueError):
            subsample_views(sino, 0)
        with pytest.raises(ValueError):
            subsample_views(sino, 11)

    def test_factor_one_is_identity(self):
        geom = uniform_geometry(32, 10)
        values = Rng(1).normal((10, geom.n_bins))
        sub = subsample_views(Sinogram(geometry=geom, values=values), 1)
        assert np.array_equal(sub.values, values)
