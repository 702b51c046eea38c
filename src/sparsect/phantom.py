"""Random ellipse phantoms: rasterization and exact parallel-beam sinograms.

A centered, axis-aligned ellipse with semi-axes (A, B) and density rho has the
closed-form line integral 2*rho*A*B*sqrt(r^2 - s^2)/r^2 along the line at view
angle theta and offset s, where r^2 = A^2 cos^2(theta) + B^2 sin^2(theta).
Rotation and shift of the ellipse are absorbed by transforming (theta, s).
"""

from dataclasses import astuple, dataclass, field

import numpy as np

from .numerics import Rng
from .projector import Geometry, Image, Sinogram

__all__ = ["Ellipse", "Phantom", "random_phantom", "rasterize", "analytic_sinogram",
           "save_phantom", "load_phantom"]


@dataclass(frozen=True)
class Ellipse:
    cx: float
    cy: float
    a: float          # semi-axis along the ellipse's own x direction
    b: float          # semi-axis along its y direction
    angle: float      # rotation, radians in [0, pi)
    rho: float        # additive density

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise ValueError(f"ellipse fields must be finite: {astuple(self)}")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("ellipse semi-axes must be positive")


@dataclass
class Phantom:
    ellipses: list = field(default_factory=list)
    fov_radius: float = 1.0

    def __post_init__(self):
        if not self.ellipses:
            raise ValueError("phantom needs at least one ellipse")
        if not (np.isfinite(self.fov_radius) and self.fov_radius > 0):
            raise ValueError(f"fov_radius must be finite and positive, "
                             f"got {self.fov_radius!r}")


def random_phantom(rng: Rng) -> Phantom:
    """Draw 3 to 8 (uniform count) random ellipses in the unit field of view.

    Centers are uniform in the disk of radius 0.9, semi-axes uniform in
    [0.05, 0.4], angles uniform in [0, pi), densities uniform in [-1, 1]
    with the band |rho| < 0.1 excluded.  Ellipses that would poke outside the
    field-of-view disk are redrawn so every ellipse lies fully inside.
    """
    count = rng.integers(3, 8)
    ellipses = []
    while len(ellipses) < count:
        r = 0.9 * np.sqrt(rng.random())
        phi = rng.uniform(0.0, 2 * np.pi)
        a = rng.uniform(0.05, 0.4)
        b = rng.uniform(0.05, 0.4)
        angle = rng.uniform(0.0, np.pi)
        rho = np.sign(rng.uniform(-1.0, 1.0)) * rng.uniform(0.1, 1.0)
        if r + max(a, b) > 1.0:  # keep support inside the FOV disk
            continue
        ellipses.append(Ellipse(r * np.cos(phi), r * np.sin(phi), a, b, angle, float(rho)))
    return Phantom(ellipses)


def _pixel_grid(side, fov_radius):
    spacing = 2.0 * fov_radius / side
    coords = (np.arange(side) - (side - 1) / 2.0) * spacing
    return coords, spacing


def rasterize(phantom: Phantom, side: int) -> Image:
    """Point-sample the phantom at pixel centers (no anti-aliasing).

    Pixels whose centers fall outside the FOV disk are zero.
    """
    if side < 16:
        raise ValueError("rasterize needs side >= 16")
    coords, spacing = _pixel_grid(side, phantom.fov_radius)
    x = coords[None, :]
    y = coords[:, None]
    values = np.zeros((side, side))
    for e in phantom.ellipses:
        dx, dy = x - e.cx, y - e.cy
        c, s = np.cos(e.angle), np.sin(e.angle)
        u = dx * c + dy * s
        v = -dx * s + dy * c
        values += e.rho * ((u / e.a) ** 2 + (v / e.b) ** 2 <= 1.0)
    values *= (x ** 2 + y ** 2) <= phantom.fov_radius ** 2
    return Image(values=values, pixel_spacing=spacing)


def ellipse_line_integrals(e: Ellipse, thetas, offsets):
    """Exact X-ray transform of one ellipse on a (view, offset) grid.

    thetas: shape (V,), offsets: shape (S,); returns shape (V, S).
    """
    th = np.asarray(thetas, dtype=np.float64)[:, None]
    s = np.asarray(offsets, dtype=np.float64)[None, :]
    s_rel = s - (e.cx * np.cos(th) + e.cy * np.sin(th))
    t = th - e.angle
    r2 = (e.a * np.cos(t)) ** 2 + (e.b * np.sin(t)) ** 2
    under = np.maximum(r2 - s_rel ** 2, 0.0)
    return 2.0 * e.rho * e.a * e.b * np.sqrt(under) / r2


def analytic_sinogram(phantom: Phantom, geometry: Geometry) -> Sinogram:
    """Exact sinogram: per-ellipse closed forms summed at each bin center."""
    values = np.zeros((geometry.n_views, geometry.n_bins))
    offsets = geometry.bin_centers()
    for e in phantom.ellipses:
        values += ellipse_line_integrals(e, geometry.angles, offsets)
    return Sinogram(geometry=geometry, values=values)


def save_phantom(phantom: Phantom, path):
    """Plain-text phantom record: one 'cx cy a b angle rho' line per ellipse."""
    with open(path, "w") as fh:
        fh.write(f"# sparsect phantom v1 fov_radius={float(phantom.fov_radius)!r}\n")
        for e in phantom.ellipses:
            fields = (e.cx, e.cy, e.a, e.b, e.angle, e.rho)
            fh.write(" ".join(repr(float(v)) for v in fields) + "\n")


def load_phantom(path) -> Phantom:
    ellipses = []
    fov_radius = 1.0
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if "fov_radius=" in line:
                        fov_radius = float(line.split("fov_radius=")[1])
                    continue
                vals = [float(v) for v in line.split()]
                if len(vals) != 6:
                    raise ValueError(f"bad phantom record: {line!r}")
                ellipses.append(Ellipse(*vals))
        return Phantom(ellipses, fov_radius)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
