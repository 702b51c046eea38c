"""Regularized iterative inversion.

Two solvers over the shared projector pair:

* `ista_reconstruct` minimizes 0.5*||y - H W a||^2 + lambda*||a||_1 where W is
  an orthonormal multilevel Haar synthesis, via ISTA or FISTA.  It needs H
  only through H*H, and its step bound L is estimated on H*H, whose norm is
  that of W*H*HW.
* `tv_admm_reconstruct` minimizes 0.5*||H x - y||^2 + lambda*TV(x) via ADMM
  with the splitting z = Dx; the x-update runs preconditioned CG on
  (H*H + rho D*D), with a Fourier-domain preconditioner built from the
  measured impulse response of H*H (valid because the normal operator is
  numerically a convolution).  Each CG starts from the residual the previous
  x-update left, so an x-update costs no extra H*H.  The x-updates are
  inexact: the first is solved to `cg_tol`, and each later one only to
  CG_FORCING times the relative change of its right-hand side,
  rho D*[(z_k - z_{k-1}) - (u_k - u_{k-1})], which follows the ADMM dual and
  primal residuals (Eckstein & Bertsekas 1992; Boyd et al. 2011, 3.4.4);
  `cg_tol` is the floor of that tolerance.

What depends on the geometry alone, the normal operator, the spectrum of its
impulse response and ISTA's step bound, is built once per geometry and kept
by `projector.geometry_memo`; a solve recomputes only the per-rho
denominator of its preconditioner.

An objective costs one extra `forward` per iteration, so it is computed only
where it is read: by ISTA's divergence guard and for `history` lists.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, fft_2d
from .projector import (Geometry, Image, Sinogram, forward, adjoint,
                        normal_operator, geometry_memo, kernel_spectrum)

__all__ = ["SolverConfig", "SolverError", "soft_threshold",
           "wavelet_analysis", "wavelet_synthesis", "estimate_lipschitz",
           "ista_reconstruct", "tv_admm_reconstruct", "grad_pairs", "grad_pairs_adjoint"]


class SolverError(RuntimeError):
    """Solver mis-configuration or non-convergence."""


# Inexact ADMM: from the second x-update on, CG stops at a relative residual
# of CG_FORCING * ||rhs_k - rhs_{k-1}|| / ||rhs_k|| (never below cg_tol).
CG_FORCING = 0.03


@dataclass
class SolverConfig:
    lam: float = 1e-3            # regularization weight
    max_iters: int = 200
    step_inverse: float = None   # Lipschitz bound L (ISTA); estimated if None
    tol: float = 1e-5            # relative-change stopping threshold
    rho: float = 1.0             # ADMM penalty
    cg_iters: int = 50
    cg_tol: float = 1e-8         # CG relative residual: the first x-update's
                                 # and the floor of the adaptive one after it
    fista: bool = False
    levels: int = 3              # Haar decomposition depth

    def __post_init__(self):
        if not (0 <= self.lam < np.inf and self.tol >= 0 and self.cg_tol >= 0
                and 0 < self.rho < np.inf):
            raise ValueError("invalid solver configuration")
        if self.max_iters < 1 or self.cg_iters < 1:
            raise ValueError("max_iters and cg_iters must be at least 1")
        if self.levels < 0:
            raise ValueError(f"levels must be >= 0, not {self.levels}")
        if self.step_inverse is not None and not 0 < self.step_inverse < np.inf:
            raise ValueError(
                f"step_inverse must be finite and > 0, not {self.step_inverse}")


def soft_threshold(v, theta):
    """Elementwise sign(v) * max(|v| - theta, 0)."""
    if theta < 0:
        raise ValueError("threshold must be >= 0")
    v = np.asarray(v)
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


_H = 1.0 / 2.0  # 2x2 orthonormal Haar butterfly scale


def _haar_step(block):
    a = block[0::2, 0::2]
    b = block[0::2, 1::2]
    c = block[1::2, 0::2]
    d = block[1::2, 1::2]
    return ((a + b + c + d) * _H, (a - b + c - d) * _H,
            (a + b - c - d) * _H, (a - b - c + d) * _H)


def _haar_step_inv(ll, hl, lh, hh):
    n = ll.shape[0] * 2
    out = np.empty((n, n))
    out[0::2, 0::2] = (ll + hl + lh + hh) * _H
    out[0::2, 1::2] = (ll - hl + lh - hh) * _H
    out[1::2, 0::2] = (ll + hl - lh - hh) * _H
    out[1::2, 1::2] = (ll - hl - lh + hh) * _H
    return out


def _check_levels(values, levels):
    """Side of `values`, which `levels` Haar steps must halve exactly."""
    side = values.shape[0]
    if side % (1 << levels) != 0:
        raise ValueError(f"side {side} not divisible by 2^{levels}")
    return side


def wavelet_analysis(values: np.ndarray, levels: int) -> np.ndarray:
    """Orthonormal multilevel 2-D Haar transform (exact inverse pair), packed
    in quadrant layout: the level-k approximation occupies the top-left
    (side/2^k)^2 block."""
    out = np.array(values, dtype=np.float64)
    n = _check_levels(out, levels)
    for _ in range(levels):
        ll, hl, lh, hh = _haar_step(out[:n, :n])
        h = n // 2
        out[:h, :h] = ll
        out[:h, h:n] = hl
        out[h:n, :h] = lh
        out[h:n, h:n] = hh
        n = h
    return out


def wavelet_synthesis(coeffs: np.ndarray, levels: int) -> np.ndarray:
    """Inverse of `wavelet_analysis` for the same `levels`."""
    out = np.array(coeffs, dtype=np.float64)
    n = _check_levels(out, levels) >> levels
    for _ in range(levels):
        m = n * 2
        out[:m, :m] = _haar_step_inv(out[:n, :n], out[:n, n:m],
                                     out[n:m, :n], out[n:m, n:m])
        n = m
    return out


def estimate_lipschitz(geometry: Geometry, op=None) -> float:
    """Power iteration on H*H (50 steps from the Gaussian start of `Rng(0)`),
    times a 1.05 safety factor.  W is orthonormal, so ||W*H*HW|| = ||H*H||
    and the result also bounds ISTA's step operator.

    `op` is the normal operator H*H (callable on value arrays), built from
    `geometry` when omitted; a solver passes the one it already holds, and
    tests pass operators with known spectra.
    """
    if op is None:
        op = normal_operator(geometry)
    x = Rng(0).normal((geometry.image_side,) * 2)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(50):
        b = op(x)
        lam = float(np.sum(x * b))
        nb = np.linalg.norm(b)
        if nb == 0:
            return 1.05e-30
        x = b / nb
    return 1.05 * lam


def _data_fit(sinogram: Sinogram, x):
    """0.5*||Hx - y||^2, the data term of both solvers' objectives."""
    geom = sinogram.geometry
    r = forward(Image(x, geom.pixel_spacing), geom).values - sinogram.values
    return 0.5 * np.sum(r * r)


def synthesis_objective(sinogram: Sinogram, a, lam, levels):
    """0.5*||y - HWa||^2 + lam*||a||_1, the cost the ISTA iterate descends."""
    return float(_data_fit(sinogram, wavelet_synthesis(a, levels))
                 + lam * np.abs(a).sum())


def ista_reconstruct(sinogram: Sinogram, config: SolverConfig,
                     history=None) -> Image:
    """ISTA/FISTA on the synthesis l1 problem; returns the image W a.

    Iterate: a <- S_{lam/L}(z - (1/L) W*(H*HWz - H*y)) at the extrapolated
    z = a + (t - 1)/t_next * (a - a_prev), with FISTA's t of Beck & Teboulle
    2009, or t = 1 (no momentum) for ISTA.  ISTA's objective must not rise;
    three consecutive relative increases above 1e-6 are treated as a
    mis-configured step size and raise SolverError.  Pass a list as
    `history` to collect (iteration, objective) pairs.
    """
    geom = sinogram.geometry
    nop = normal_operator(geom)
    L = config.step_inverse
    if L is None:
        L = geometry_memo(geom, "lipschitz", lambda: estimate_lipschitz(geom, op=nop))
    levels = config.levels
    wty = wavelet_analysis(adjoint(sinogram).values, levels)

    a = a_prev = np.zeros_like(wty)
    t = 1.0
    prev_obj = np.inf
    bad = 0
    for k in range(config.max_iters):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t)) if config.fista else t
        z = a + (t - 1.0) / t_next * (a - a_prev)
        grad = wavelet_analysis(nop(wavelet_synthesis(z, levels)), levels) - wty
        a_next = soft_threshold(z - grad / L, config.lam / L)
        if history is not None or not config.fista:
            obj = synthesis_objective(sinogram, a_next, config.lam, levels)
            if history is not None:
                history.append((k, obj))
            bad = bad + 1 if obj > prev_obj * (1.0 + 1e-6) else 0
            if bad >= 3 and not config.fista:
                raise SolverError(
                    f"ISTA objective diverging at iteration {k}: {obj} > {prev_obj}")
            prev_obj = min(prev_obj, obj)
        change = np.linalg.norm(a_next - a) / max(np.linalg.norm(a), 1e-30)
        a_prev, a, t = a, a_next, t_next
        if change < config.tol:
            break
    return Image(values=wavelet_synthesis(a, levels),
                 pixel_spacing=geom.pixel_spacing)


def grad_pairs(x):
    """Forward differences (dx, dy) with zero at the trailing edge."""
    gx = np.zeros_like(x)
    gy = np.zeros_like(x)
    gx[:, :-1] = x[:, 1:] - x[:, :-1]
    gy[:-1, :] = x[1:, :] - x[:-1, :]
    return gx, gy


def grad_pairs_adjoint(gx, gy):
    """Exact transpose of grad_pairs (negative divergence)."""
    out = np.zeros_like(gx)
    out[:, :-1] -= gx[:, :-1]
    out[:, 1:] += gx[:, :-1]
    out[:-1, :] -= gy[:-1, :]
    out[1:, :] += gy[:-1, :]
    return out


def _tv_prox(gx, gy, theta):
    mag = np.sqrt(gx * gx + gy * gy)
    scale = np.maximum(1.0 - theta / np.maximum(mag, 1e-30), 0.0)
    return gx * scale, gy * scale


def _impulse_spectrum(nop, side: int):
    """`kernel_spectrum` of `nop`'s response to an impulse at the grid centre."""
    delta = np.zeros((side, side))
    delta[side // 2, side // 2] = 1.0
    return kernel_spectrum(nop(delta))


def _fourier_preconditioner(spec_h, rho: float):
    """Inverse spectrum of (H*H + rho D*D) assuming both act as convolutions,
    on the real-FFT half spectrum.  `spec_h` is `_impulse_spectrum`; the D*D
    part is the periodic Laplacian spectrum."""
    side = spec_h.shape[0]
    lap_r = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(side))
    lap_c = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.fft.rfftfreq(side))
    denom = spec_h + rho * (lap_r[:, None] + lap_c[None, :])
    denom = np.maximum(denom, 1e-8 * denom.max())
    inv = 1.0 / denom
    shape = (side, side)

    def apply(v):
        return fft_2d(fft_2d(v) * inv, inverse=True, shape=shape)
    return apply


def _pcg(apply_a, b, x0, precond, iters, tol, r0=None):
    """Preconditioned conjugate gradient from x0; returns (x, final relative
    residual, residual r, steps run).  `r0`, when given, is b - A x0 (one
    A-apply less); the returned r is the recursively updated b - A x, fit to
    be carried.  Each step is one A-apply."""
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros_like(b), 0.0, np.zeros_like(b), 0
    x = x0.copy()
    r = b - apply_a(x) if r0 is None else r0
    z = precond(r)
    p = z.copy()
    rz = np.vdot(r, z)
    for steps in range(1, iters + 1):
        ap = apply_a(p)
        alpha = rz / max(np.vdot(p, ap), 1e-300)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * bnorm:
            break
        z = precond(r)
        rz_new = np.vdot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, float(np.linalg.norm(r) / bnorm), r, steps


def tv_admm_reconstruct(sinogram: Sinogram, config: SolverConfig,
                        history=None) -> Image:
    """Isotropic-TV-regularized reconstruction via ADMM (splitting z = Dx).

    With lam == 0 this reduces to the least-squares solution (solved directly
    by preconditioned CG on the normal equations).  Pass a list as `history`
    to collect (iteration, objective, primal_residual, dual_residual,
    cg_steps, cg_resid) rows: the x-update's CG steps (H*H applies) and the
    relative residual it stopped at.
    """
    geom = sinogram.geometry
    hty = adjoint(sinogram).values
    nop = normal_operator(geom)
    rho = config.rho
    spec_h = geometry_memo(geom, "hh_spectrum",
                           lambda: _impulse_spectrum(nop, geom.image_side))
    precond = _fourier_preconditioner(spec_h, 0.0 if config.lam == 0 else rho)

    if config.lam == 0:
        x, resid, _, _ = _pcg(nop, hty, np.zeros_like(hty), precond,
                              config.cg_iters * 10, config.cg_tol)
        if resid > config.cg_tol:
            raise SolverError(f"CG failed to converge: relative residual {resid:.3e}")
        return Image(values=x, pixel_spacing=geom.pixel_spacing)

    def apply_a(v):
        """H*H v + rho D*D v, D*D summed as grad_pairs_adjoint(grad_pairs(v))."""
        dd = np.zeros_like(v)
        d = v[:, 1:] - v[:, :-1]
        dd[:, :-1] -= d
        dd[:, 1:] += d
        d = v[1:, :] - v[:-1, :]
        dd[:-1, :] -= d
        dd[1:, :] += d
        dd *= rho
        dd += nop(v)
        return dd

    x = np.zeros_like(hty)
    ax = np.zeros_like(hty)    # A x, as the last CG's residual implies it
    zx, zy = grad_pairs(x)
    ux = np.zeros_like(zx)
    uy = np.zeros_like(zy)
    rhs = None
    for k in range(config.max_iters):
        rhs_old = rhs
        rhs = hty + rho * grad_pairs_adjoint(zx - ux, zy - uy)
        tol = config.cg_tol
        if rhs_old is not None:
            tol = max(tol, CG_FORCING * np.linalg.norm(rhs - rhs_old)
                      / max(np.linalg.norm(rhs), 1e-300))
        x, resid, r, steps = _pcg(apply_a, rhs, x, precond, config.cg_iters, tol,
                                  r0=rhs - ax)
        ax = rhs - r
        gx, gy = grad_pairs(x)
        zx_old, zy_old = zx, zy
        zx, zy = _tv_prox(gx + ux, gy + uy, config.lam / rho)
        ux += gx - zx
        uy += gy - zy
        primal = np.sqrt(np.sum((gx - zx) ** 2 + (gy - zy) ** 2))
        dual = rho * np.linalg.norm(
            grad_pairs_adjoint(zx - zx_old, zy - zy_old))
        if history is not None:
            tv = np.sqrt(gx ** 2 + gy ** 2).sum()
            history.append((k, float(_data_fit(sinogram, x) + config.lam * tv),
                            float(primal), float(dual), steps, resid))
        scale = max(np.linalg.norm(x), 1e-30)
        if primal < config.tol * scale and dual < config.tol * scale:
            break
    return Image(values=x, pixel_spacing=geom.pixel_spacing)
