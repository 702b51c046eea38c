"""Direct inversion: ramp filtering + back projection, the image-domain
deconvolution variant, and uniform view subsampling.

The ramp is built in the spatial domain (band-limited Ram-Lak taps) and
applied in the frequency domain after zero-padding to at least twice the next
power of two, which avoids both circular wrap-around and the classic DC-bias
error of sampling |freq| directly.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import fft_1d, fft_2d
from .projector import (Geometry, Image, Sinogram, adjoint,
                        backproject_pixel_driven)

__all__ = ["RampFilter", "make_ramp", "fbp_reconstruct", "deconvolution_form",
           "subsample_views"]

APODIZATIONS = ("none", "hann", "cosine")


@dataclass(frozen=True)
class RampFilter:
    taps: np.ndarray           # symmetric spatial-domain coefficients
    det_spacing: float
    apodization: str = "none"

    def __post_init__(self):
        if self.apodization not in APODIZATIONS:
            raise ValueError(f"unknown apodization {self.apodization!r}")
        if len(self.taps) % 2 == 0:
            raise ValueError("ramp filter needs an odd tap count")


def ramp_tap(offset: int, det_spacing: float) -> float:
    """Band-limited ramp impulse response h(n*spacing), frequency response |f|
    up to the detector Nyquist rate 1/(2*spacing)."""
    d2 = det_spacing * det_spacing
    if offset == 0:
        return 1.0 / (4.0 * d2)
    if offset % 2 == 0:
        return 0.0
    return -1.0 / (np.pi * np.pi * offset * offset * d2)


def make_ramp(n_bins: int, det_spacing: float, apodization="none") -> RampFilter:
    if n_bins < 8:
        raise ValueError("make_ramp needs n_bins >= 8")
    half = n_bins - 1
    offs = np.arange(-half, half + 1)
    odd = offs % 2 == 1
    # same expressions as ramp_tap, so the taps match it exactly
    d2 = det_spacing * det_spacing
    taps = np.zeros(2 * half + 1)
    taps[odd] = -1.0 / (np.pi * np.pi * offs[odd] * offs[odd] * d2)
    taps[half] = 1.0 / (4.0 * d2)
    return RampFilter(taps=taps, det_spacing=det_spacing, apodization=apodization)


def _next_pow2(n):
    m = 1
    while m < n:
        m *= 2
    return m


def _apod_window(freq_ratio, apodization):
    """Taper as a function of |f|/f_nyquist in [0, 1]."""
    r = np.clip(np.abs(freq_ratio), 0.0, 1.0)
    if apodization == "none":
        return np.ones_like(r)
    if apodization == "hann":
        return 0.5 * (1.0 + np.cos(np.pi * r))
    if apodization == "cosine":
        return np.cos(0.5 * np.pi * r)
    raise ValueError(f"unknown apodization {apodization!r}")


def filter_views(values: np.ndarray, filt: RampFilter) -> np.ndarray:
    """Convolve every sinogram row with the ramp (linear, via padded FFT).

    The result is scaled by det_spacing so it approximates the continuous
    convolution integral.
    """
    n_views, n_bins = values.shape
    half = len(filt.taps) // 2
    size = _next_pow2(max(2 * n_bins, n_bins + half + 1))
    kernel = np.zeros(size)
    kernel[: half + 1] = filt.taps[half:]
    kernel[size - half:] = filt.taps[:half]
    resp = fft_1d(kernel).real  # symmetric taps: zero-phase, real response
    f_ratio = np.fft.fftfreq(size) * 2.0  # |f|/f_nyq on the FFT grid
    resp = resp * _apod_window(f_ratio, filt.apodization)
    padded = np.zeros((n_views, size))
    padded[:, :n_bins] = values
    filtered = fft_1d(fft_1d(padded) * resp, inverse=True).real[:, :n_bins]
    return filtered * filt.det_spacing


def _backprojection_scale(geom: Geometry) -> float:
    # adjoint -> continuous back projection: the interpolation weights of one
    # view integrate to pixel_spacing^2/det_spacing per pixel, and the view
    # sum approximates an integral over [0, pi)
    return (np.pi / geom.n_views) * geom.det_spacing / geom.pixel_spacing ** 2


def fbp_reconstruct(sinogram: Sinogram, filt: RampFilter = None) -> Image:
    """Measurement-domain FBP: per-view ramp filtering, then back projection."""
    geom = sinogram.geometry
    if filt is None:
        filt = make_ramp(geom.n_bins, geom.det_spacing, "none")
    if abs(filt.det_spacing - geom.det_spacing) > 1e-12 * geom.det_spacing:
        raise ValueError("filter detector spacing does not match sinogram geometry")
    filtered = filter_views(sinogram.values, filt)
    bp = adjoint(Sinogram(geometry=geom, values=filtered))
    return Image(values=bp.values * _backprojection_scale(geom),
                 pixel_spacing=geom.pixel_spacing)


def deconvolution_form(sinogram: Sinogram, apodization="none") -> Image:
    """Image-domain FBP: back project first, then apply the 2-D ||f|| filter."""
    geom = sinogram.geometry
    side = geom.image_side
    # back project onto a 2x-extended grid: measurements are truly zero beyond
    # the detector, so the slowly decaying tails of the back projection are
    # exact there, which keeps the 2-D ramp's long kernel from seeing a
    # truncation edge near the reconstruction region
    ext = 2 * side
    bp = backproject_pixel_driven(sinogram.values, geom, side=ext)
    bp *= np.pi / geom.n_views
    size = _next_pow2(2 * ext)
    padded = np.zeros((size, size))
    lo = (size - ext) // 2
    padded[lo:lo + ext, lo:lo + ext] = bp
    f = np.fft.fftfreq(size, d=geom.pixel_spacing)
    fr = np.sqrt(f[:, None] ** 2 + f[None, :] ** 2)
    f_nyq = 0.5 / geom.pixel_spacing
    resp = fr * _apod_window(fr / f_nyq, apodization) * (fr <= f_nyq)
    out = fft_2d(fft_2d(padded) * resp, inverse=True).real
    crop = lo + (ext - side) // 2
    return Image(values=out[crop:crop + side, crop:crop + side],
                 pixel_spacing=geom.pixel_spacing)


def subsample_views(sinogram: Sinogram, factor: int) -> Sinogram:
    """Keep every factor-th view starting at index 0 (1000 views / 7 -> 143)."""
    geom = sinogram.geometry
    if factor < 1:
        raise ValueError("subsampling factor must be >= 1")
    if factor > geom.n_views:
        raise ValueError("subsampling factor exceeds the view count")
    sub = geom.with_angles(geom.angles[::factor])
    return Sinogram(geometry=sub, values=sinogram.values[::factor].copy())
