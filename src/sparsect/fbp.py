"""Direct inversion: ramp filtering + back projection, the image-domain
deconvolution variant, and uniform view subsampling.

The ramp is built in the spatial domain (band-limited Ram-Lak taps) and
applied in the frequency domain after zero-padding to twice the data (views up
to a power of two, see `filter_views`), which avoids both circular wrap-around
and the classic DC-bias error of sampling |freq| directly.  Memory stays
bounded: views go in blocks, the deconvolution form a real-FFT half spectrum.
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
    convolution integral.  Views go through one reused buffer in blocks of at
    most 2**16 padded cells (or one view); rows transform alone, bit-exactly.
    The FFT takes any length, but the padded one stays a power of two: the
    window is sampled on that grid, and even a rounding-level FBP change moves
    the networks trained on it (and `perfbench/reference.json`'s CNN values).
    """
    n_views, n_bins = values.shape
    half = len(filt.taps) // 2
    size = 1 << (max(2 * n_bins, n_bins + half + 1) - 1).bit_length()  # next power of two
    kernel = np.zeros(size)
    kernel[: half + 1] = filt.taps[half:]
    kernel[size - half:] = filt.taps[:half]
    resp = fft_1d(kernel).real  # symmetric taps: zero-phase, real response
    f_ratio = np.fft.fftfreq(size) * 2.0  # |f|/f_nyq on the FFT grid
    resp = resp * _apod_window(f_ratio, filt.apodization)
    step = max(1, (1 << 16) // size)
    padded = np.zeros((min(step, n_views), size))
    filtered = np.empty((n_views, n_bins))
    for v0 in range(0, n_views, step):
        block = padded[:len(values[v0:v0 + step])]
        block[:, :n_bins] = values[v0:v0 + step]
        filtered[v0:v0 + step] = fft_1d(fft_1d(block) * resp, inverse=True).real[:, :n_bins]
    return np.multiply(filtered, filt.det_spacing, out=filtered)


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
    """Image-domain FBP: back project first, then apply the 2-D ||f|| filter.
    The filter is circular, so the back projection goes in at the origin of
    the padded grid (only the crop moves), and memory stays near one real-FFT
    half spectrum, on which the ramp and the product are formed in place."""
    geom = sinogram.geometry
    side = geom.image_side
    # back project onto a 2x-extended grid: measurements are truly zero beyond
    # the detector, so the slowly decaying tails of the back projection are
    # exact there, which keeps the 2-D ramp's long kernel from seeing a
    # truncation edge near the reconstruction region
    ext = 2 * side
    size = 2 * ext   # zero padding against circular wrap-around, as for the views
    f_nyq = 0.5 / geom.pixel_spacing
    resp = np.add.outer(np.fft.fftfreq(size, d=geom.pixel_spacing) ** 2,
                        np.fft.rfftfreq(size, d=geom.pixel_spacing) ** 2)
    np.sqrt(resp, out=resp)
    resp[resp > f_nyq] = 0.0
    resp *= _apod_window(resp / f_nyq, apodization)
    bp = backproject_pixel_driven(sinogram.values, geom, side=ext)
    spec = fft_2d(bp * (np.pi / geom.n_views), shape=(size, size))
    spec *= resp
    del bp, resp
    out = fft_2d(spec, inverse=True, shape=(size, size))
    crop = (ext - side) // 2
    return Image(values=out[crop:crop + side, crop:crop + side].copy(),
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
