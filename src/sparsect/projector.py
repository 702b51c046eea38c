"""Discrete parallel-beam Radon transform (Joseph ray-driven), its exact
adjoint, and a numerical certifier that the normal operator acts as a
convolution with a 1/||frequency|| spectrum.

Coordinate conventions: pixel (i, j) sits at x = (j - (side-1)/2) * dx,
y = (i - (side-1)/2) * dx.  A view at angle theta measures along rays
perpendicular to the unit vector u = (cos theta, sin theta); the detector
coordinate of a point p is p . u, and bin centers are symmetric about the
rotation axis.

One tap builder, `_taps`, yields the Joseph crossings of each view block by
block as indices into image lines padded with two cells at each end;
`forward` gathers through it, `backproject_values` scatters through it and
`system_matrix` maps the same taps to pixel columns, all on the geometry's
own grid (only `backproject_pixel_driven` takes another side).  Blocks of
at most `_BLOCK_CELLS` cells skip what lands only on padding and keep every
sum in order: `forward` sums whole zero-filled rows of a slab of bins, the
adjoint takes slabs of lines (a cell's bins share one `bincount`), and
`backproject_pixel_driven` loops over views in blocks of rows.  `H*H` at
256²/360 takes about 1.0 s on one core (1.6 s unblocked).  `normal_operator`
uses the CSR matrix for side <= 128 and `forward`/`adjoint` above that.
`geometry_memo`, the one per-geometry cache, keeps that matrix and what the
solvers derive from one geometry alone, for one geometry at a time.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import fft_2d

__all__ = ["Geometry", "Image", "Sinogram", "uniform_geometry", "forward",
           "adjoint", "backproject_values", "normal_operator", "geometry_memo",
           "kernel_spectrum", "certify_normal_convolution", "CertReport"]


@dataclass(frozen=True)
class Geometry:
    angles: tuple              # strictly increasing view angles in [0, pi)
    n_bins: int
    det_spacing: float
    image_side: int
    pixel_spacing: float

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=np.float64)
        object.__setattr__(self, "angles", ang)
        ang.setflags(write=False)
        if ang.ndim != 1 or len(ang) < 1:
            raise ValueError("geometry needs at least one view angle")
        if not np.all(np.isfinite(ang)):
            raise ValueError("angles must be finite")
        spacings = (self.det_spacing, self.pixel_spacing)
        if not all(np.isfinite(d) and d > 0 for d in spacings):
            raise ValueError("spacings must be finite and positive")
        if self.n_bins < 1 or self.image_side < 1:
            raise ValueError("n_bins and image_side must be at least 1")
        if np.any(np.diff(ang) <= 0) or ang[0] < 0 or ang[-1] >= np.pi:
            raise ValueError("angles must be strictly increasing within [0, pi)")
        diag = self.image_side * self.pixel_spacing * np.sqrt(2.0)
        if self.n_bins * self.det_spacing < diag:
            raise ValueError("detector does not cover the field-of-view diagonal")

    def _key(self):
        return (self.angles.tobytes(), self.n_bins, self.det_spacing,
                self.image_side, self.pixel_spacing)

    def __eq__(self, other):
        return isinstance(other, Geometry) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n_views(self):
        return len(self.angles)

    def bin_centers(self):
        return (np.arange(self.n_bins) - (self.n_bins - 1) / 2.0) * self.det_spacing

    def with_angles(self, angles):
        return Geometry(tuple(angles), self.n_bins, self.det_spacing,
                        self.image_side, self.pixel_spacing)


def uniform_geometry(image_side, n_views, fov_radius=1.0, bins_per_pixel=2.0):
    """Geometry with angles i*pi/n_views and a detector covering the diagonal.

    The default detector pitch of half a pixel keeps the interpolation
    footprint of the transpose back projection below the pixel scale, which
    is what makes the normal operator numerically shift-invariant.
    """
    pixel_spacing = 2.0 * fov_radius / image_side
    det_spacing = pixel_spacing / bins_per_pixel
    diag = image_side * pixel_spacing * np.sqrt(2.0)
    n_bins = int(np.ceil(diag / det_spacing)) + 1
    if n_bins % 2 == 0:
        n_bins += 1  # odd count puts a bin center on the rotation axis
    angles = np.arange(n_views) * np.pi / n_views
    return Geometry(tuple(angles), n_bins, det_spacing, image_side, pixel_spacing)


@dataclass
class Image:
    values: np.ndarray         # (side, side) float64
    pixel_spacing: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("image must be square")
        if v.size == 0:
            raise ValueError("image must not be empty")
        if not (np.isfinite(self.pixel_spacing) and self.pixel_spacing > 0):
            raise ValueError("pixel_spacing must be finite and positive")
        if not np.all(np.isfinite(v)):
            raise ValueError("image values must be finite")
        self.values = v

    @property
    def side(self):
        return self.values.shape[0]


def _check_values(values, geom):
    shape = (geom.n_views, geom.n_bins)
    if np.shape(values) != shape:
        raise ValueError(f"values must be (n_views, n_bins) = {shape}, not {np.shape(values)}")


@dataclass
class Sinogram:
    geometry: Geometry
    values: np.ndarray         # (n_views, n_bins) float64

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        _check_values(v, self.geometry)
        if not np.all(np.isfinite(v)):
            raise ValueError("sinogram values must be finite")
        self.values = v


_BLOCK_CELLS = 1 << 14  # cells per kernel block: 128 kB float64 temporaries stay in L2


def _band(a, t0, t1, b, cb, reach, n):
    """[lo, hi) in [0, n) holding every w with |a*t + b*(w - cb)| <= reach
    for some t in [t0, t1], widened by one unit of reach.  A |b| below 1e-9
    (an axis-aligned view) counts as 1e-9, which moves a*t + b*w by < 1e-9*n."""
    b = b if abs(b) > 1e-9 else 1e-9
    mid = cb - a * (t0 + t1) / 2.0 / b
    width = (reach + 1.0 + abs(a) * (t1 - t0) / 2.0) / abs(b)
    return max(0, int(mid - width)), min(n, int(mid + width) + 1)


def _taps(geom, by_lines):
    """Yield (vi, drive_rows, weight, bins, lines, idx, frac): the Joseph taps
    of each view of `geom` on its own side x side grid, in slabs of whole
    lines (by_lines) or bins, each cut by `_band` to the range of the other
    axis that can reach the grid.  Rays closer to vertical (drive_rows) cross
    every image row, the others every column.  Bin b crosses line k
    g*(b - off) + h*(k - half) cells from the line's middle, between lateral
    cells idx[b, k] and idx[b, k] + 1, with weights (1 - frac, frac) times
    `weight`, the path length through a line.  `idx` indexes the lines from
    lines[0] on, each padded with two cells at both ends (side + 4 per line);
    crossings are clipped to [-2, side] first, so a tap off the grid lands on
    a pad cell.
    """
    side, n_bins, dx = geom.image_side, geom.n_bins, geom.pixel_spacing
    n, other = (side, n_bins) if by_lines else (n_bins, side)
    step = max(1, _BLOCK_CELLS // other)
    half, off = (side - 1) / 2.0, (n_bins - 1) / 2.0
    centers = geom.bin_centers()
    for vi, theta in enumerate(geom.angles):
        c, s = np.cos(theta), np.sin(theta)
        drive_rows = bool(abs(c) >= abs(s))
        u, v = (c, s) if drive_rows else (s, c)
        slope_s, slope_c = 1.0 / u, -v / u
        g, h = float(slope_s) * geom.det_spacing / dx, float(slope_c)
        a, ca, b, cb = (h, half, g, off) if by_lines else (g, off, h, half)
        for start in range(0, n, step):
            stop = min(start + step, n)
            lo, hi = _band(a, start - ca, stop - 1 - ca, b, cb, half + 1.0, other)
            if lo >= hi:
                continue
            bins, lines = ((lo, hi), (start, stop)) if by_lines else ((start, stop), (lo, hi))
            k = np.arange(*lines)
            jf = slope_s * centers[bins[0]:bins[1], None] + slope_c * ((k - half) * dx)[None, :]
            jf /= dx
            jf += half
            j0 = np.floor(jf)
            frac = np.subtract(jf, j0, out=jf)
            idx = np.clip(j0, -2, side, out=j0).astype(np.int64)
            idx += (k - lines[0]) * (side + 4) + 2
            yield vi, drive_rows, dx / abs(u), bins, lines, idx, frac


def _padded_lines(grid, fill=0):
    """[columns, rows] of `grid` as flat lines padded with two `fill` cells at
    each end, indexed by `_taps` from line 0."""
    return [np.pad(g, ((0, 0), (2, 2)), constant_values=fill).ravel()
            for g in (grid.T, grid)]


def forward(image: Image, geometry: Geometry) -> Sinogram:
    """Ray-driven line integrals with linear interpolation across the lateral
    axis, gathered from zero-padded image lines."""
    if image.side != geometry.image_side:
        raise ValueError("image side does not match geometry")
    if abs(image.pixel_spacing - geometry.pixel_spacing) > 1e-12 * geometry.pixel_spacing:
        raise ValueError("image pixel spacing does not match geometry")
    side = geometry.image_side
    out = np.zeros((geometry.n_views, geometry.n_bins))
    flat = _padded_lines(image.values)
    for vi, drive_rows, weight, bins, lines, idx, frac in _taps(geometry, by_lines=False):
        cells = flat[drive_rows][lines[0] * (side + 4):]
        v0, v1 = cells.take(idx), cells[1:].take(idx)
        v1 *= frac
        v0 *= np.subtract(1.0, frac, out=frac)
        terms = np.zeros((bins[1] - bins[0], side))
        np.add(v0, v1, out=terms[:, lines[0]:lines[1]])
        out[vi, bins[0]:bins[1]] = weight * terms.sum(axis=1)
    return Sinogram(geometry=geometry, values=out)


def backproject_values(values: np.ndarray, geom: Geometry) -> np.ndarray:
    """Transpose-weight back projection, the exact adjoint of `forward`.
    Column- and row-driven views scatter into two padded line-major
    accumulators whose pad cells are dropped at the end."""
    side = geom.image_side
    _check_values(values, geom)
    acc = np.zeros((2, side * (side + 4)))
    for vi, drive_rows, weight, bins, lines, idx, frac in _taps(geom, by_lines=True):
        v = values[vi, bins[0]:bins[1], None] * weight
        cells = acc[int(drive_rows), lines[0] * (side + 4):lines[1] * (side + 4)]
        cells += np.bincount(idx.ravel(), (v * (1.0 - frac)).ravel(), cells.size)
        # scatter to idx + 1 as the counts at idx shifted by one cell
        cells[1:] += np.bincount(idx.ravel(), (v * frac).ravel(), cells.size)[:-1]
    acc = acc.reshape(2, side, side + 4)[:, :, 2:-2]
    return acc[1] + acc[0].T


def adjoint(sinogram: Sinogram) -> Image:
    """Exact matrix transpose of `forward` (same weights, scattered)."""
    geom = sinogram.geometry
    return Image(values=backproject_values(sinogram.values, geom),
                 pixel_spacing=geom.pixel_spacing)


def backproject_pixel_driven(values: np.ndarray, geom: Geometry, side=None) -> np.ndarray:
    """Smooth back projection: interpolate each view at every pixel's detector
    coordinate and sum.  Not the matrix adjoint of `forward` (the transpose
    scatter has sub-pixel beating when rays are wider than pixels laterally);
    use this where the result is fed to a high-pass filter.  Each view is
    padded with two zero bins at each end and detector indices are clipped to
    [-2, n_bins], so pixels that project off the detector read zero (and
    `_band` skips them in blocks of rows).
    """
    side = geom.image_side if side is None else side
    _check_values(values, geom)
    half, ratio = (side - 1) / 2.0, geom.pixel_spacing / geom.det_spacing
    coords = (np.arange(side) - half) * geom.pixel_spacing
    out = np.zeros((side, side))
    off = (geom.n_bins - 1) / 2.0
    padded = np.pad(values, ((0, 0), (2, 2)))
    trig = [(np.cos(theta), np.sin(theta)) for theta in geom.angles]
    step = max(1, _BLOCK_CELLS // side)
    for r0 in range(0, side, step):
        y, rows = coords[r0:r0 + step, None], out[r0:r0 + step]
        for vi, (c, s) in enumerate(trig):
            lo, hi = _band(float(s) * ratio, r0 - half, r0 + len(y) - 1 - half,
                           float(c) * ratio, half, off + 1.0, side)
            t = coords[None, lo:hi] * c + y * s
            t /= geom.det_spacing
            t += off
            b0 = np.floor(t)
            frac = np.subtract(t, b0, out=t)
            idx = np.clip(b0, -2, geom.n_bins, out=b0).astype(np.int64)
            idx += 2
            v0, v1 = padded[vi].take(idx), padded[vi, 1:].take(idx)
            v1 *= frac
            v0 *= np.subtract(1.0, frac, out=frac)
            rows[:, lo:hi] += v0
            rows[:, lo:hi] += v1
    return out


def system_matrix(geom: Geometry):
    """Sparse CSR matrix of `forward` (rows: view*n_bins + bin, cols: pixels).

    Built from the same `_taps` as forward/adjoint: each padded cell maps to
    its pixel index, or to -1 on the pad cells, whose taps are dropped.
    """
    import scipy.sparse as sp

    side, n_bins = geom.image_side, geom.n_bins
    cell_pixel = _padded_lines(np.arange(side * side).reshape(side, side), fill=-1)
    rows, cols, data = [], [], []
    for vi, drive_rows, weight, bins, lines, idx, frac in _taps(geom, by_lines=False):
        pixel = cell_pixel[drive_rows][lines[0] * (side + 4):]
        ray = np.broadcast_to(np.arange(*bins)[:, None] + vi * n_bins, idx.shape)
        for col, w in ((pixel.take(idx), weight * (1.0 - frac)),
                       (pixel[1:].take(idx), weight * frac)):
            m = col >= 0
            rows.append(ray[m])
            cols.append(col[m])
            data.append(w[m])
    mat = sp.coo_matrix((np.concatenate(data),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(geom.n_views * n_bins, side * side))
    return mat.tocsr()


_memo = {}  # the one cached geometry ("geometry") and what was built for it


def geometry_memo(geometry: Geometry, key, build):
    """`build()` the first time `key` is asked for with `geometry`, the stored
    value after that.  One geometry is held at a time: asking with another
    drops the whole old entry before anything is built for the new one, so
    memory stays at one geometry's worth.  Builders return read-only arrays,
    since every caller shares them."""
    if _memo.get("geometry") != geometry:
        _memo.clear()
        _memo["geometry"] = geometry
    if key not in _memo:
        _memo[key] = build()
    return _memo[key]


def _csr_pair(geometry):
    """The read-only CSR matrix of `forward` and its transpose."""
    mat = system_matrix(geometry)
    pair = (mat, mat.T.tocsr())
    for m in pair:
        for a in (m.data, m.indices, m.indptr):
            a.setflags(write=False)
    return pair


def normal_operator(geometry: Geometry):
    """Callable applying H*H to a (side, side) value array: through the CSR
    system matrix and its stored transpose for side <= 128, built once per
    geometry (`geometry_memo`), and matrix-free with `forward` and `adjoint`
    above that (the matrix grows as side cubed)."""
    side = geometry.image_side
    if side > 128:
        def apply(values):
            img = Image(values=values, pixel_spacing=geometry.pixel_spacing)
            return adjoint(forward(img, geometry)).values
        return apply
    mat, mat_t = geometry_memo(geometry, "csr", lambda: _csr_pair(geometry))

    def apply(values):
        return (mat_t @ (mat @ values.ravel())).reshape(side, side)
    return apply


@dataclass
class CertReport:
    shift_invariance_score: float
    spectral_slope: float


def kernel_spectrum(response):
    """Read-only half spectrum |rfft2| of a centred impulse response moved to
    the origin: the spectrum of its convolution kernel, at any side."""
    spec = np.abs(fft_2d(np.fft.ifftshift(response)))
    spec.setflags(write=False)
    return spec


def _radial_average(half):
    """Mean over integer-radius annuli of a half spectrum; returns (radii,
    means).  Columns other than 0 and n/2 count twice, for their mirrors."""
    n, m = half.shape
    f, k = np.fft.fftfreq(n) * n, np.fft.rfftfreq(n) * n   # integer frequency indices
    bins = np.rint(np.sqrt(f[:, None] ** 2 + k[None, :] ** 2)).astype(int).ravel()
    mult = np.broadcast_to(np.where(2 * np.arange(m) % n == 0, 1.0, 2.0), half.shape)
    counts = np.bincount(bins, weights=mult.ravel())
    means = np.bincount(bins, weights=(half * mult).ravel()) / np.maximum(counts, 1)
    return np.arange(len(counts)), means


def certify_normal_convolution(geometry: Geometry, normal_op=None) -> CertReport:
    """Test that the normal operator behaves as a convolution.

    Applies the operator (`normal_op`, built from `geometry` when omitted) to
    impulses at five probe pixels, the grid center and the four pixels side/8
    away from it along the axes, recenters each response by an integer shift,
    and scores the worst normalized L2 discrepancy against the center
    response (0 for an exactly shift-invariant operator).  Also radially
    averages the center response's 2-D spectrum and fits a log-log slope over
    the mid-band [0.03, 0.12] * side cycles per image (the Radon normal
    operator should give a slope near -1).  Any side will do: the spectrum
    is the image grid's `kernel_spectrum`, the one the TV preconditioner uses.
    """
    side = geometry.image_side
    c, q = side // 2, side // 8
    probes = [(c, c), (c - q, c), (c + q, c), (c, c - q), (c, c + q)]
    if normal_op is None:
        normal_op = normal_operator(geometry)

    responses = []
    for (pi, pj) in probes:
        delta = np.zeros((side, side))
        delta[pi, pj] = 1.0
        responses.append(np.roll(normal_op(delta), (c - pi, c - pj), axis=(0, 1)))

    ref = responses[0]
    ref_norm = np.linalg.norm(ref)
    score = max(np.linalg.norm(r - ref) / ref_norm for r in responses)

    radii, amps = _radial_average(kernel_spectrum(ref))

    lo = max(1, int(np.floor(0.03 * side)))
    hi = max(lo + 2, int(np.ceil(0.12 * side)))
    sel = (radii >= lo) & (radii <= hi) & (amps > 0)
    slope = float(np.polyfit(np.log(radii[sel]), np.log(amps[sel]), 1)[0])
    return CertReport(shift_invariance_score=float(score), spectral_slope=slope)
