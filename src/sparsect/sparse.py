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
  numerically a convolution).

An objective costs one extra `forward` per iteration, so it is computed only
where it is read: by ISTA's divergence guard and for `history` lists.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, fft_2d
from .projector import (Geometry, Image, Sinogram, forward, adjoint,
                        normal_operator)

__all__ = ["SolverConfig", "SolverError", "soft_threshold",
           "wavelet_analysis", "wavelet_synthesis", "estimate_lipschitz",
           "ista_reconstruct", "tv_admm_reconstruct", "grad_pairs", "grad_pairs_adjoint"]


class SolverError(RuntimeError):
    """Solver mis-configuration or non-convergence."""


@dataclass
class SolverConfig:
    lam: float = 1e-3            # regularization weight
    max_iters: int = 200
    step_inverse: float = None   # Lipschitz bound L (ISTA); estimated if None
    tol: float = 1e-5            # relative-change stopping threshold
    rho: float = 1.0             # ADMM penalty
    cg_iters: int = 50
    cg_tol: float = 1e-8
    fista: bool = False
    levels: int = 3              # Haar decomposition depth

    def __post_init__(self):
        if not (self.lam >= 0 and self.tol >= 0 and self.cg_tol >= 0 and self.rho > 0):
            raise ValueError("invalid solver configuration")
        if self.max_iters < 1 or self.cg_iters < 1:
            raise ValueError("max_iters and cg_iters must be at least 1")


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
        L = estimate_lipschitz(geom, op=nop)
    if L <= 0:
        raise SolverError("step_inverse must be positive")
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


def _fourier_preconditioner(nop, side: int, rho: float):
    """Inverse spectrum of (H*H + rho D*D) assuming both act as convolutions.

    The H*H part is the impulse response of the normal operator `nop` at the
    grid center (the certified convolution kernel); the D*D part is the
    periodic Laplacian spectrum.
    """
    delta = np.zeros((side, side))
    delta[side // 2, side // 2] = 1.0
    spec_h = np.abs(fft_2d(np.fft.ifftshift(nop(delta))))
    w = 2.0 * np.pi * np.fft.fftfreq(side)
    lap = (2.0 - 2.0 * np.cos(w))[:, None] + (2.0 - 2.0 * np.cos(w))[None, :]
    denom = spec_h + rho * lap
    denom = np.maximum(denom, 1e-8 * denom.max())
    inv = 1.0 / denom

    def apply(v):
        return fft_2d(fft_2d(v) * inv, inverse=True).real
    return apply


def _pcg(apply_a, b, x0, precond, iters, tol):
    """Preconditioned conjugate gradient; returns (x, final relative residual)."""
    x = x0.copy()
    r = b - apply_a(x)
    z = precond(r)
    p = z.copy()
    rz = np.sum(r * z)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros_like(b), 0.0
    for _ in range(iters):
        ap = apply_a(p)
        alpha = rz / max(np.sum(p * ap), 1e-300)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * bnorm:
            break
        z = precond(r)
        rz_new = np.sum(r * z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, float(np.linalg.norm(r) / bnorm)


def tv_admm_reconstruct(sinogram: Sinogram, config: SolverConfig,
                        history=None) -> Image:
    """Isotropic-TV-regularized reconstruction via ADMM (splitting z = Dx).

    With lam == 0 this reduces to the least-squares solution (solved directly
    by preconditioned CG on the normal equations).  Pass a list as `history`
    to collect (iteration, objective, primal_residual, dual_residual) rows.
    """
    geom = sinogram.geometry
    hty = adjoint(sinogram).values
    nop = normal_operator(geom)
    rho = config.rho
    precond = _fourier_preconditioner(nop, geom.image_side,
                                      0.0 if config.lam == 0 else rho)

    if config.lam == 0:
        x, resid = _pcg(nop, hty, np.zeros_like(hty), precond,
                        config.cg_iters * 10, config.cg_tol)
        if resid > config.cg_tol:
            raise SolverError(f"CG failed to converge: relative residual {resid:.3e}")
        return Image(values=x, pixel_spacing=geom.pixel_spacing)

    def apply_a(v):
        ax, ay = grad_pairs(v)
        return nop(v) + rho * grad_pairs_adjoint(ax, ay)

    x = np.zeros_like(hty)
    zx, zy = grad_pairs(x)
    ux = np.zeros_like(zx)
    uy = np.zeros_like(zy)
    for k in range(config.max_iters):
        rhs = hty + rho * grad_pairs_adjoint(zx - ux, zy - uy)
        x, resid = _pcg(apply_a, rhs, x, precond, config.cg_iters, config.cg_tol)
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
                            float(primal), float(dual)))
        scale = max(np.linalg.norm(x), 1e-30)
        if primal < config.tol * scale and dual < config.tol * scale:
            break
    return Image(values=x, pixel_spacing=geom.pixel_spacing)
