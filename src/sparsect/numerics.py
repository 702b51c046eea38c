"""Shared numeric foundations: portable seeded RNG, the one FFT entry point
(`fft_1d`/`fft_2d` over numpy's pocketfft), affine calibration fit and
affine-calibrated SNR.

Everything here is pure and deterministic.  All scalars are 64-bit; callers
that want 32-bit (network training) cast at their own boundary.
"""

import numpy as np

__all__ = ["Rng", "fft_1d", "fft_2d", "affine_fit", "snr", "SNR_CAP_DB"]

SNR_CAP_DB = 300.0

# splitmix64 constants (Steele, Lea & Flood 2014)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    """splitmix64 finalizer: z is uint64 scalar or array, returns same shape."""
    z = np.uint64(z) if np.isscalar(z) else z.astype(np.uint64)
    with np.errstate(over="ignore"):  # mod-2^64 wraparound is the point
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class Rng:
    """Counter-based splitmix64 generator.

    Update rule: state_{k} = seed + k * 0x9E3779B97F4A7C15 (mod 2^64),
    output_k = mix(state_k) where mix is the splitmix64 finalizer.  Being
    counter-based makes batched draws exactly equal to sequential draws, and
    the sequence is identical on every platform for a given seed.

    One instance is single-owner; use ``split`` to derive independent child
    streams (one per worker / phantom index).
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def _raw(self, n):
        """Next n raw 64-bit outputs."""
        with np.errstate(over="ignore"):
            ks = self._seed + _GAMMA * (np.arange(self._counter + 1,
                                                  self._counter + n + 1,
                                                  dtype=np.uint64))
        self._counter += n
        return _mix64(ks)

    def random(self, size=None):
        """Uniform float64 in [0, 1) with 53-bit resolution."""
        n = 1 if size is None else int(np.prod(size))
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        if size is None:
            return float(u[0])
        return u.reshape(size)

    def uniform(self, low, high, size=None):
        return low + (high - low) * self.random(size)

    def integers(self, low, high, size=None):
        """Uniform integers in [low, high] inclusive (range must fit in 2^32)."""
        span = int(high) - int(low) + 1
        n = 1 if size is None else int(np.prod(size))
        # modulo bias is < 2^-32 for spans below 2^32; acceptable here
        v = (self._raw(n) % np.uint64(span)).astype(np.int64) + low
        if size is None:
            return int(v[0])
        return v.reshape(size)

    def normal(self, size=None):
        """Standard normals via Box-Muller (pairs drawn eagerly)."""
        n = 1 if size is None else int(np.prod(size))
        m = (n + 1) // 2
        u1 = 1.0 - self.random(m)  # (0, 1], keeps log finite
        u2 = self.random(m)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])[:n]
        if size is None:
            return float(z[0])
        return z.reshape(size)

    def split(self, index: int) -> "Rng":
        """Derive an independent child stream for the given index."""
        child_seed = _mix64(self._seed ^ _mix64(np.uint64(index) + np.uint64(1)))
        return Rng(int(child_seed))


def fft_1d(x, inverse=False, n=None, axis=-1, real=False):
    """DFT along `axis` (numpy's pocketfft), of any length, zero-padded or
    cut to `n` points (default: the length along `axis`).

    Forward is unnormalized (fft([1,1,1,1]) == [4,0,0,0]); inverse divides by
    n, so fft_1d(fft_1d(x), inverse=True) == x.  With `real` the pair is
    `rfft`/`irfft`: the forward transform of real `x` keeps the n // 2 + 1
    non-negative frequencies, and the inverse returns the real signal of `n`
    points (default 2 * (length - 1)).  Every FFT in sparsect goes through
    `fft_1d` or `fft_2d`, so one place sees them all.
    """
    if real:
        return np.fft.irfft(x, n, axis) if inverse else np.fft.rfft(x, n, axis)
    return np.fft.ifft(x, n, axis) if inverse else np.fft.fft(x, n, axis)


def fft_2d(x, inverse=False, shape=None):
    """2-D real-input DFT over the last two axes, normalized as `fft_1d`:
    `rfft2` of real `x`, zero-padded to `shape` (default: its own), to the
    half spectrum of `shape[1] // 2 + 1` columns; with `inverse`, `irfft2`
    back to the real array of `shape`.  Any side will do.  Bit for bit, it is
    `fft_1d`'s real transform along the rows, then its complex one along the
    columns (inverse: columns, then rows), so those passes may run in blocks."""
    return np.fft.irfft2(x, s=shape) if inverse else np.fft.rfft2(x, s=shape)


def affine_fit(reference, candidate):
    """Least-squares gain/offset (a, b) minimizing ||reference - a*candidate + b||_2.

    Returns the closed-form 2x2 normal-equation solution.  A constant
    candidate is degenerate: returns a=0 and the offset minimizing the
    residual (b = -mean(reference)).
    """
    x = np.asarray(reference, dtype=np.float64).ravel()
    xh = np.asarray(candidate, dtype=np.float64).ravel()
    if x.size != xh.size or x.size < 2:
        raise ValueError("affine_fit needs two equal-length vectors of size >= 2")
    mx, mxh = x.mean(), xh.mean()
    var = np.dot(xh - mxh, xh - mxh)
    if var <= 1e-30 * x.size * max(1.0, mxh * mxh):
        return 0.0, -mx
    a = np.dot(x - mx, xh - mxh) / var
    b = a * mxh - mx
    return float(a), float(b)


def snr(reference, candidate) -> float:
    """Affine-calibrated SNR (dB): 20 log10 ||x|| / min_{a,b} ||x - a*xhat + b||,
    capped at +300 dB for numerically exact matches.  Both inputs must be
    finite: a NaN would otherwise read as the cap."""
    ref = np.asarray(getattr(reference, "values", reference), dtype=np.float64)
    cand = np.asarray(getattr(candidate, "values", candidate), dtype=np.float64)
    if ref.shape != cand.shape:
        raise ValueError("snr needs equal-shaped inputs")
    if not (np.all(np.isfinite(ref)) and np.all(np.isfinite(cand))):
        raise ValueError("snr needs finite inputs")
    a, b = affine_fit(ref, cand)
    resid = np.linalg.norm(ref - a * cand + b)
    num = np.linalg.norm(ref)
    if resid <= 1e-15 * max(num, 1.0):
        return SNR_CAP_DB
    return float(min(SNR_CAP_DB, 20.0 * np.log10(num / resid)))
