"""Versioned on-disk formats: sinogram binary, raw image, PGM export,
network weights, and deterministic CSV.

All binary formats are little-endian.

Sinogram (.sino):  magic "SPCTSINO", u32 version=1, u32 n_views, u32 n_bins,
    f64 det_spacing, u32 image_side, f64 pixel_spacing, f64 angles[n_views],
    f64 values[n_views*n_bins] row-major.
Image (.img):      magic "SPCTIMG1", u32 side, f64 pixel_spacing,
    f64 values[side*side] row-major.
Weights (.net):    magic "SPCTNET2", u32 depth, u32 base_channels,
    u32 n_arrays, f64 gain, f64 offset (the network sees gain * image + offset),
    then per array: u16 name length, name utf-8, u8 ndim, u32 dims[ndim], f32
    data.  Version 1 files ("SPCTNET1", without gain and offset) are rejected.
"""

import math
import os
import stat
import struct

import numpy as np

from .net import NetworkParams, layer_specs
from .projector import Geometry, Image, Sinogram

SINO_MAGIC = b"SPCTSINO"
IMG_MAGIC = b"SPCTIMG1"
NET_MAGIC = b"SPCTNET2"


def save_sinogram(sino: Sinogram, path):
    g = sino.geometry
    with open(path, "wb") as fh:
        fh.write(SINO_MAGIC)
        fh.write(struct.pack("<III", 1, g.n_views, g.n_bins))
        fh.write(struct.pack("<d", g.det_spacing))
        fh.write(struct.pack("<I", g.image_side))
        fh.write(struct.pack("<d", g.pixel_spacing))
        fh.write(np.asarray(g.angles, "<f8").tobytes())
        fh.write(np.ascontiguousarray(sino.values, "<f8").tobytes())


def _read(fh, size, path, field):
    """Exactly `size` bytes of `field`, or ValueError naming file and field.
    On a regular file the size is checked against the bytes left before
    reading, so a corrupt header cannot ask for a buffer larger than the file
    (pipes have no size and are only checked after the read)."""
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode) and size > info.st_size - fh.tell():
        raise ValueError(f"{path}: truncated {field} (expected {size} bytes, "
                         f"{info.st_size - fh.tell()} left)")
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: truncated {field} "
                         f"(expected {size} bytes, got {len(data)})")
    return data


def _unpack(fh, fmt, path, field):
    return struct.unpack(fmt, _read(fh, struct.calcsize(fmt), path, field))


def load_sinogram(path) -> Sinogram:
    with open(path, "rb") as fh:
        if fh.read(8) != SINO_MAGIC:
            raise ValueError(f"{path}: not a sinogram file")
        version, n_views, n_bins = _unpack(fh, "<III", path, "header")
        if version != 1:
            raise ValueError(f"{path}: unsupported sinogram version {version}")
        det_spacing, = _unpack(fh, "<d", path, "det_spacing")
        image_side, = _unpack(fh, "<I", path, "image_side")
        pixel_spacing, = _unpack(fh, "<d", path, "pixel_spacing")
        angles = np.frombuffer(_read(fh, 8 * n_views, path, "angles"), "<f8")
        values = np.frombuffer(_read(fh, 8 * n_views * n_bins, path, "values"),
                               "<f8").reshape(n_views, n_bins)
    try:
        geom = Geometry(tuple(angles), n_bins, det_spacing, image_side, pixel_spacing)
        return Sinogram(geometry=geom, values=values.copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_image(image: Image, path):
    with open(path, "wb") as fh:
        fh.write(IMG_MAGIC)
        fh.write(struct.pack("<Id", image.side, image.pixel_spacing))
        fh.write(np.ascontiguousarray(image.values, "<f8").tobytes())


def load_image(path) -> Image:
    with open(path, "rb") as fh:
        if fh.read(8) != IMG_MAGIC:
            raise ValueError(f"{path}: not an image file")
        side, pixel_spacing = _unpack(fh, "<Id", path, "header")
        values = np.frombuffer(_read(fh, 8 * side * side, path, "values"),
                               "<f8").reshape(side, side)
    try:
        return Image(values=values.copy(), pixel_spacing=pixel_spacing)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_pgm(values, path):
    """16-bit binary PGM (P5), windowed linearly from min to max."""
    v = np.asarray(values, dtype=np.float64)
    lo, hi = float(v.min()), float(v.max())
    span = hi - lo if hi > lo else 1.0
    maxval = 65535
    q = np.clip(np.rint((v - lo) / span * maxval), 0, maxval).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n# window {lo!r} {hi!r}\n{v.shape[1]} {v.shape[0]}\n{maxval}\n"
                 .encode())
        fh.write(q.tobytes())


def save_weights(params: NetworkParams, path):
    with open(path, "wb") as fh:
        fh.write(NET_MAGIC)
        fh.write(struct.pack("<III", params.depth, params.base_channels,
                             len(params.weights)))
        fh.write(struct.pack("<dd", params.gain, params.offset))
        for name in sorted(params.weights):
            arr = np.ascontiguousarray(params.weights[name], "<f4")
            nb = name.encode()
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_weights(path) -> NetworkParams:
    """Weights of the network that `layer_specs(depth, base_channels)`
    describes: exactly its arrays, each named once, in its shapes, with
    finite values, and its input map."""
    with open(path, "rb") as fh:
        if fh.read(8) != NET_MAGIC:
            raise ValueError(f"{path}: not a weights file")
        depth, base_channels, n_arrays = _unpack(fh, "<III", path, "header")
        gain, offset = _unpack(fh, "<dd", path, "input map")
        if not (math.isfinite(gain) and gain != 0 and math.isfinite(offset)):
            raise ValueError(f"{path}: input map needs a finite non-zero gain and "
                             f"a finite offset, got {gain!r}, {offset!r}")
        weights = {}
        for i in range(n_arrays):
            nlen, = _unpack(fh, "<H", path, f"array {i} name length")
            try:
                name = _read(fh, nlen, path, f"array {i} name").decode()
            except UnicodeDecodeError:
                raise ValueError(f"{path}: array {i} name is not UTF-8") from None
            if name in weights:
                raise ValueError(f"{path}: array {name!r} appears twice")
            ndim, = _unpack(fh, "<B", path, f"{name} ndim")
            dims = _unpack(fh, f"<{ndim}I", path, f"{name} dims")
            count = math.prod(dims)
            weights[name] = np.frombuffer(_read(fh, 4 * count, path, f"{name} data"),
                                          "<f4").reshape(dims).copy()
    # a depth-d network holds more than d arrays; checked first because
    # layer_specs loops over the depth read from the header
    if depth > n_arrays:
        raise ValueError(f"{path}: depth {depth} does not fit {n_arrays} arrays")
    shapes = {f"{name}.{part}": shape
              for name, oc, ic, kh, kw in layer_specs(depth, base_channels)
              for part, shape in (("w", (oc, ic, kh, kw)), ("b", (oc,)))}
    if set(weights) != set(shapes):
        raise ValueError(f"{path}: arrays do not match a depth-{depth}, "
                         f"{base_channels}-channel network (missing "
                         f"{sorted(set(shapes) - set(weights))}, unexpected "
                         f"{sorted(set(weights) - set(shapes))})")
    for name, arr in weights.items():
        if arr.shape != shapes[name]:
            raise ValueError(f"{path}: {name} has shape {arr.shape}, "
                             f"expected {shapes[name]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: {name} has non-finite values")
    return NetworkParams(depth, base_channels, weights, gain, offset)


def write_csv(rows, header, path):
    """Deterministic CSV: floats via repr, fixed row order."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(c)) if isinstance(c, (float, np.floating))
                              else str(c) for c in row) + "\n")
