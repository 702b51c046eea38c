"""Command-line interface.

Subcommands cover the whole workflow: phantom/sinogram generation, forward
projection, the three reconstruction methods, network training, operator
certification, scoring, and the manifest-driven end-to-end experiment.

Exit codes: 0 success, 1 runtime failure, 2 usage error (argparse default).
"""

import argparse
import os
import sys

import numpy as np

from . import formats
from .numerics import Rng
from .phantom import random_phantom, rasterize, analytic_sinogram, load_phantom, save_phantom
from .projector import uniform_geometry, forward, Image, certify_normal_convolution
from .fbp import (APODIZATIONS, make_ramp, fbp_reconstruct, deconvolution_form,
                  subsample_views)
from .sparse import SolverConfig, ista_reconstruct, tv_admm_reconstruct, SolverError
from .net import forward_net
from .pipeline import (ExperimentManifest, run_experiment, snr, generate_dataset,
                       train_cnn)

__all__ = ["main"]


def _geometry(args):
    return uniform_geometry(args.side, args.n_views)


def _load_sino(path, subsample=1):
    sino = formats.load_sinogram(path)
    return sino if subsample == 1 else subsample_views(sino, subsample)


def _save_recon(image, out, pgm=False):
    formats.save_image(image, out)
    if pgm:
        formats.save_pgm(image.values, os.path.splitext(out)[0] + ".pgm")


def cmd_gen_data(args):
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, not {args.count}")
    geom = _geometry(args)
    root = Rng(args.seed)
    for i in range(args.count):
        ph = random_phantom(root.split(i))
        raster = rasterize(ph, args.side)  # first: a bad side fails before anything is made
        os.makedirs(args.out_dir, exist_ok=True)
        save_phantom(ph, os.path.join(args.out_dir, f"phantom_{i:04d}.txt"))
        sino = analytic_sinogram(ph, geom)
        formats.save_sinogram(sino, os.path.join(args.out_dir, f"sino_{i:04d}.sino"))
        formats.save_image(raster, os.path.join(args.out_dir, f"raster_{i:04d}.img"))
    print(f"wrote {args.count} phantom/sinogram/raster triples to {args.out_dir}")


def cmd_project(args):
    geom = _geometry(args)
    ph = load_phantom(args.phantom)
    if args.discrete:
        sino = forward(rasterize(ph, args.side), geom)
    else:
        sino = analytic_sinogram(ph, geom)
    formats.save_sinogram(sino, args.out)
    print(f"wrote {geom.n_views}x{geom.n_bins} sinogram to {args.out}")


def cmd_fbp(args):
    sino = _load_sino(args.sino, args.subsample)
    if args.deconvolution:
        image = deconvolution_form(sino, apodization=args.apodization)
    else:
        filt = make_ramp(sino.geometry.n_bins, sino.geometry.det_spacing,
                         args.apodization)
        image = fbp_reconstruct(sino, filt)
    _save_recon(image, args.out, args.pgm)
    print(f"wrote {image.side}x{image.side} FBP reconstruction to {args.out}")


def cmd_ista(args):
    sino = _load_sino(args.sino, args.subsample)
    config = SolverConfig(lam=args.lam, max_iters=args.iters, fista=args.fista,
                          levels=args.levels, tol=args.tol)
    history = []
    image = ista_reconstruct(sino, config, history=history)
    _save_recon(image, args.out, args.pgm)
    if args.history:
        formats.write_csv(history, ["iter", "objective"], args.history)
    name = "FISTA" if args.fista else "ISTA"
    print(f"wrote {name} reconstruction to {args.out} "
          f"({len(history)} iterations, final objective {history[-1][1]:.6g})")


def cmd_tv(args):
    sino = _load_sino(args.sino, args.subsample)
    config = SolverConfig(lam=args.lam, rho=args.rho, max_iters=args.iters,
                          cg_iters=args.cg_iters, cg_tol=ExperimentManifest.cg_tol,
                          tol=args.tol)
    history = []
    image = tv_admm_reconstruct(sino, config, history=history)
    _save_recon(image, args.out, args.pgm)
    if args.history:
        formats.write_csv(history, ["iter", "objective", "primal", "dual",
                                    "cg_steps", "cg_resid"], args.history)
    print(f"wrote TV-ADMM reconstruction to {args.out} ({len(history)} iterations, "
          f"{sum(row[4] for row in history)} CG steps = H*H applies)")


def cmd_train(args):
    manifest = ExperimentManifest(seed=args.seed, image_side=args.side,
                                  n_views=args.n_views, factors=(args.factor,),
                                  n_train=args.count, n_test=0, epochs=args.epochs,
                                  depth=args.depth, base_channels=args.base_channels)
    _, data = generate_dataset(manifest)
    params, history = train_cnn(manifest, args.factor, data)
    if not history:
        raise ValueError("a non-finite loss stopped training in epoch 0; no weights written")
    formats.save_weights(params, args.out)
    if args.history:
        formats.write_csv(history, ["epoch", "train_loss"], args.history)
    print(f"trained {len(history)} of {args.epochs} epochs on {len(data)} pairs; "
          f"final train loss {history[-1][1]:.6g}; weights at {args.out}"
          + ("" if len(history) == args.epochs else "; a non-finite loss stopped training"))


def cmd_apply(args):
    params = formats.load_weights(args.weights)
    image = formats.load_image(args.image)
    # the network works in its training units; its output is mapped back
    y = forward_net(params, params.net_input(image.values))
    out = Image(values=(np.asarray(y, dtype=np.float64) - params.offset) / params.gain,
                pixel_spacing=image.pixel_spacing)
    _save_recon(out, args.out, args.pgm)
    print(f"wrote network output to {args.out}")


def cmd_eval(args):
    ref = formats.load_image(args.reference)
    cand = formats.load_image(args.candidate)
    print(f"snr_db = {snr(ref, cand)!r}")


def cmd_certify(args):
    geom = _geometry(args)
    report = certify_normal_convolution(geom)
    print(f"shift_invariance_score = {report.shift_invariance_score!r}")
    print(f"spectral_slope = {report.spectral_slope!r}")
    ok = (report.shift_invariance_score <= args.score_max
          and abs(report.spectral_slope + 1.0) <= args.slope_tol)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_run(args):
    manifest = ExperimentManifest.load(args.manifest) if args.manifest \
        else ExperimentManifest()
    table = run_experiment(manifest, args.out_dir)
    for (factor, method) in sorted(table.means):
        print(f"x{factor:<3} {method:<4} mean snr {table.means[(factor, method)]:8.3f} dB"
              f"   ({table.timings[(factor, method)]:.3f} s/image)")


def _add_geom_args(p):
    p.add_argument("--side", type=int, default=64, help="image side in pixels")
    p.add_argument("--n-views", type=int, default=90, help="projection angles")


def build_parser():
    parser = argparse.ArgumentParser(prog="sparsect",
                                     description="Sparse-view CT reconstruction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate phantoms, sinograms, rasters")
    _add_geom_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("project", help="project a phantom file to a sinogram")
    _add_geom_args(p)
    p.add_argument("--phantom", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--discrete", action="store_true",
                   help="Joseph projection of the raster instead of analytic line integrals")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("fbp", help="filtered backprojection")
    p.add_argument("--sino", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--apodization", choices=APODIZATIONS, default="none")
    p.add_argument("--subsample", type=int, default=1, help="keep every Nth view")
    p.add_argument("--deconvolution", action="store_true",
                   help="image-domain deconvolution form instead of view filtering")
    p.add_argument("--pgm", action="store_true", help="also write a PGM preview")
    p.set_defaults(func=cmd_fbp)

    p = sub.add_parser("ista", help="wavelet-sparsity ISTA/FISTA reconstruction")
    p.add_argument("--sino", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lam", type=float, default=2e-3)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--fista", action="store_true")
    p.add_argument("--subsample", type=int, default=1)
    p.add_argument("--history", help="CSV path for per-iteration objectives")
    p.add_argument("--pgm", action="store_true")
    p.set_defaults(func=cmd_ista)

    p = sub.add_parser("tv", help="total-variation ADMM reconstruction")
    p.add_argument("--sino", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lam", type=float, default=3e-3)
    p.add_argument("--rho", type=float, default=ExperimentManifest.tv_rho)
    p.add_argument("--iters", type=int, default=ExperimentManifest.tv_iters)
    p.add_argument("--cg-iters", type=int, default=ExperimentManifest.cg_iters)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--subsample", type=int, default=1)
    p.add_argument("--history", help="CSV path for per-iteration diagnostics")
    p.add_argument("--pgm", action="store_true")
    p.set_defaults(func=cmd_tv)

    p = sub.add_parser("train", help="train the residual network on generated pairs")
    _add_geom_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200, help="training pairs")
    p.add_argument("--factor", type=int, default=7, help="view subsampling factor")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--base-channels", type=int, default=16)
    p.add_argument("--out", required=True, help="weights file (.net)")
    p.add_argument("--history", help="CSV path for per-epoch losses")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("apply", help="run a trained network on an image file")
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", action="store_true")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("eval", help="affine-calibrated SNR of candidate vs reference")
    p.add_argument("--reference", required=True)
    p.add_argument("--candidate", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("certify", help="normal-operator convolution certification")
    _add_geom_args(p)
    p.add_argument("--score-max", type=float, default=0.05)
    p.add_argument("--slope-tol", type=float, default=0.15)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("run", help="manifest-driven end-to-end experiment")
    p.add_argument("--manifest", help="key=value manifest file (defaults used if omitted)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
    except (SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if rc is None else rc


if __name__ == "__main__":
    sys.exit(main())
