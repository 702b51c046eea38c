import os
import re
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sparsect import formats, pipeline, projector
from sparsect.numerics import Rng
from sparsect.projector import uniform_geometry, Image, Sinogram
from sparsect.pipeline import (ExperimentManifest, run_experiment, snr,
                               golden_section, SNR_CAP_DB, generate_dataset,
                               _tv_config, train_cnn)
from sparsect.cli import main
from sparsect.net import init_params
from sparsect.fbp import subsample_views
from sparsect.sparse import tv_admm_reconstruct


class TestSnr:
    def test_cap_on_exact_match(self):
        x = Rng(0).normal((16, 16))
        assert snr(x, x) == SNR_CAP_DB

    def test_affine_invariant(self):
        x = Rng(1).normal((16, 16))
        noisy = x + 0.1 * Rng(2).normal((16, 16))
        assert snr(x, noisy) == pytest.approx(snr(x, 3.0 * noisy - 7.0), abs=1e-9)

    def test_known_value(self):
        # orthogonal zero-mean noise: residual is exactly the noise floor
        x = np.concatenate([np.ones(50), -np.ones(50)])
        n = np.concatenate([np.ones(25), -np.ones(25), np.ones(25), -np.ones(25)])
        val = snr(x, x + 0.1 * n)
        # optimal gain 100/101 leaves residual 10/sqrt(101): 10*log10(101) dB
        assert val == pytest.approx(10.0 * np.log10(101.0), abs=1e-9)

    def test_gaussian_noise_monte_carlo(self):
        # E[snr(x, x + noise)] ~= 20 log10(||x|| / (sigma * sqrt(N))) for large N
        rng = Rng(30)
        x = rng.normal(4096)
        sigma = 0.05
        vals = [snr(x, x + sigma * rng.normal(4096)) for _ in range(100)]
        expected = 20.0 * np.log10(np.linalg.norm(x) / (sigma * np.sqrt(4096)))
        assert abs(np.mean(vals) - expected) < 0.1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            snr(np.zeros((4, 4)), np.zeros((5, 5)))


class TestGoldenSection:
    def test_finds_concave_maximum(self):
        x, fx = golden_section(lambda t: -(t - 1.3) ** 2, -5.0, 5.0, iters=40)
        assert abs(x - 1.3) < 1e-6
        assert abs(fx) < 1e-12


class TestManifest:
    def test_roundtrip(self, tmp_path):
        m = ExperimentManifest(seed=9, image_side=32, factors=(1, 5, 9),
                               tv_lambda=2.5e-3, input_apodization="cosine")
        path = tmp_path / "m.txt"
        m.save(path)
        back = ExperimentManifest.load(path)
        assert back == m

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        for key in ("bogus_key", "save"):  # a method is not a setting either
            path.write_text(f"{key} = 1\n")
            with pytest.raises(ValueError, match=f"unknown manifest key '{key}'"):
                ExperimentManifest.load(path)

    def test_bad_value_names_the_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("epochs = three\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            ExperimentManifest.load(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("seed = 1\nepochs = 2\nseed = 2\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: manifest "
                                             "key 'seed' given twice"):
            ExperimentManifest.load(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# comment\n\nseed = 4\n")
        assert ExperimentManifest.load(path).seed == 4

    @pytest.mark.parametrize("fields", [
        dict(n_train=0), dict(epochs=0), dict(factors=(0, 7)),
        dict(n_views=30, factors=(7, 31)), dict(image_side=36, depth=3), dict(depth=-1),
        dict(scale_lo=5.0, scale_hi=5.0), dict(scale_hi=float("nan")),
        dict(tv_rho=0.0), dict(tv_rho=float("nan")), dict(tv_iters=0), dict(cg_iters=0),
        dict(cg_tol=-1e-7), dict(tv_lambda=float("nan")),
        dict(tv_tune_count=0), dict(tv_lambda_lo=0.0), dict(tv_lambda_lo=0.05),
        dict(tv_lambda_lo=3e-2, tv_lambda_hi=3e-2), dict(input_apodization="bogus"),
        dict(gt_apodization="hamming"), dict(n_test=-3), dict(image_side=8),
        dict(base_channels=0), dict(scale_hi=float("inf")),
        dict(scale_lo=float("-inf")), dict(tv_lambda_hi=float("inf")),
        dict(tv_rho=float("inf")), dict(tv_lambda=float("inf")), dict(scale_hi=1e300),
        dict(scale_lo=-1e300)])
    def test_rejects_runs_that_would_fail_late(self, fields):
        with pytest.raises(ValueError):
            ExperimentManifest(**fields)

    def test_fixed_lambda_needs_no_tuning_settings(self):
        ExperimentManifest(tv_lambda=3e-3, tv_tune_count=0, tv_lambda_lo=0.0)


def _nan_angle_sino(tmp_path):
    """A .sino file whose view angles are all NaN."""
    geom = uniform_geometry(8, 3)
    path = tmp_path / "nan.sino"
    formats.save_sinogram(Sinogram(geometry=geom, values=np.zeros(
        (geom.n_views, geom.n_bins))), path)
    raw = bytearray(path.read_bytes())
    angles_at = 8 + 12 + 8 + 4 + 8  # magic, counts, det_spacing, side, pixel_spacing
    raw[angles_at:angles_at + 24] = np.full(3, np.nan, "<f8").tobytes()
    path.write_bytes(bytes(raw))
    return path


# each example overwrites the same file, so a per-test tmp_path is enough
roundtrip_settings = settings(max_examples=30, deadline=None, derandomize=True,
                              suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFormats:
    @roundtrip_settings
    @given(side=st.integers(min_value=1, max_value=40),
           fov_radius=st.floats(min_value=1e-3, max_value=1e3),
           bins_per_pixel=st.floats(min_value=0.5, max_value=4.0),
           angles=st.lists(st.floats(min_value=0.0, max_value=np.pi, exclude_max=True),
                           min_size=1, max_size=12, unique=True),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_sinogram_roundtrip(self, tmp_path, side, fov_radius, bins_per_pixel,
                                angles, seed):
        geom = uniform_geometry(side, 1, fov_radius, bins_per_pixel)
        geom = geom.with_angles(sorted(angles))
        sino = Sinogram(geometry=geom, values=np.random.default_rng(seed).normal(
            size=(geom.n_views, geom.n_bins)))
        path = tmp_path / "s.sino"
        formats.save_sinogram(sino, path)
        back = formats.load_sinogram(path)
        assert np.array_equal(back.values, sino.values)
        assert np.array_equal(back.geometry.angles, geom.angles)
        assert back.geometry.n_bins == geom.n_bins
        assert back.geometry.det_spacing == geom.det_spacing
        assert back.geometry.image_side == geom.image_side
        assert back.geometry.pixel_spacing == geom.pixel_spacing

    @roundtrip_settings
    @given(side=st.integers(min_value=1, max_value=40),
           pixel_spacing=st.floats(min_value=1e-6, max_value=1e6),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_image_roundtrip(self, tmp_path, side, pixel_spacing, seed):
        img = Image(np.random.default_rng(seed).normal(size=(side, side)), pixel_spacing)
        path = tmp_path / "i.img"
        formats.save_image(img, path)
        back = formats.load_image(path)
        assert np.array_equal(back.values, img.values)
        assert back.pixel_spacing == img.pixel_spacing

    def test_image_from_pipe(self, tmp_path):
        img = Image(Rng(4).normal((16, 16)), 0.125)
        path = tmp_path / "i.img"
        formats.save_image(img, path)
        fifo = tmp_path / "pipe.img"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
        writer.start()
        back = formats.load_image(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(back.values, img.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"GARBAGE!" + b"\x00" * 64)
        with pytest.raises(ValueError):
            formats.load_sinogram(path)
        with pytest.raises(ValueError):
            formats.load_image(path)

    @pytest.mark.parametrize("kind", ["sino", "img", "net"])
    def test_truncation_rejected_at_every_offset(self, tmp_path, kind):
        path = tmp_path / f"full.{kind}"
        if kind == "sino":
            geom = uniform_geometry(8, 3)
            formats.save_sinogram(Sinogram(geometry=geom, values=Rng(6).normal(
                (geom.n_views, geom.n_bins))), path)
            load = formats.load_sinogram
        elif kind == "img":
            formats.save_image(Image(Rng(7).normal((6, 6)), 0.25), path)
            load = formats.load_image
        else:
            formats.save_weights(init_params(1, 2, Rng(8)), path)
            load = formats.load_weights
        raw = path.read_bytes()
        load(path)
        cut = tmp_path / f"cut.{kind}"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValueError, match="cut"):
                load(cut)

    def test_nan_angles_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            formats.load_sinogram(_nan_angle_sino(tmp_path))

    def test_empty_image_rejected(self, tmp_path):
        path = tmp_path / "empty.img"
        path.write_bytes(formats.IMG_MAGIC + struct.pack("<Id", 0, 0.1))
        with pytest.raises(ValueError, match="empty"):
            formats.load_image(path)

    def test_pgm_header_and_size(self, tmp_path):
        path = tmp_path / "p.pgm"
        formats.save_pgm(Rng(5).normal((8, 10)), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n")
        assert b"10 8" in raw and b"65535" in raw
        assert len(raw.split(b"65535\n", 1)[1]) == 160  # 8*10 pixels, 2 bytes each

    def test_csv_deterministic_floats(self, tmp_path):
        path = tmp_path / "r.csv"
        formats.write_csv([(1, "a", 0.1), (2, "b", np.float64(1) / 3)],
                          ["i", "name", "v"], path)
        text = path.read_text()
        assert text == "i,name,v\n1,a,0.1\n2,b,0.3333333333333333\n"

    def test_manifest_bad_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("no equals sign here\n")
        with pytest.raises(ValueError, match="bad manifest line"):
            ExperimentManifest.load(path)


TINY = dict(seed=3, image_side=32, n_views=30, factors=(1, 5), n_train=6,
            n_test=3, epochs=2, depth=1, base_channels=4, tv_iters=15,
            cg_iters=10, golden_iters=3, tv_tune_count=2)


class TestRunExperiment:
    def test_warm_geometry_cache_run_byte_identical(self, tmp_path, monkeypatch,
                                                    cold_caches):
        run_experiment(ExperimentManifest(**TINY), tmp_path / "cold")
        monkeypatch.setattr(projector, "system_matrix",
                            lambda geom: pytest.fail("warm run built a matrix"))
        run_experiment(ExperimentManifest(**TINY), tmp_path / "warm")
        for name in ("results.csv", "results_mean.csv"):
            assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()

    def test_outputs_and_sanity(self, tmp_path):
        table = run_experiment(ExperimentManifest(**TINY), tmp_path)
        for name in ("results.csv", "results_mean.csv", "timings.csv",
                     "manifest.txt", "run_log.txt", "history_x5.csv",
                     "net_x5.net"):
            assert (tmp_path / name).exists(), name
        # factor 1 is the trivial self-comparison: capped SNR
        assert table.means[(1, "fbp")] == SNR_CAP_DB
        # TV must beat plain FBP at 5x subsampling on this tiny set
        assert table.means[(5, "tv")] > table.means[(5, "fbp")]
        # CNN inference is much cheaper per image than iterative TV
        assert table.timings[(5, "cnn")] < table.timings[(5, "tv")]
        rows = (tmp_path / "results.csv").read_text().strip().split("\n")
        assert rows[0] == "factor,method,test_index,snr_db"
        assert len(rows) == 1 + 3 + 3 * 3   # header + factor1 + 3 methods x 3
        history = (tmp_path / "history_x5.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,train_loss" and len(history) == 1 + TINY["epochs"]
        # one preview per method and test instance at factor 5, none at factor 1
        test_ids = range(TINY["n_train"], TINY["n_train"] + TINY["n_test"])
        assert sorted(p.name for p in tmp_path.glob("*_x*_*.pgm")) == sorted(
            f"{m}_x5_{i:04d}.pgm" for m in ("fbp", "tv", "cnn") for i in test_ids)

    def test_dataset_index_is_pure_function_of_manifest(self):
        # instance 7 is a test instance of TINY and of the 2 + 7 split alike
        _, tiny = generate_dataset(ExperimentManifest(**TINY))
        _, split = generate_dataset(ExperimentManifest(**{**TINY, "n_train": 2,
                                                          "n_test": 7}))
        assert tiny[7][0] == split[7][0] == 7
        assert np.array_equal(tiny[7][2].values, split[7][2].values)

    def test_training_pairs_beyond_float32_rejected_before_training(self, monkeypatch):
        # the widest range the manifest allows still overflows float32 for
        # FBP inputs that overshoot the targets' range
        big = float(np.finfo(np.float32).max)
        manifest = ExperimentManifest(**{**TINY, "n_train": 2, "n_test": 0,
                                         "scale_lo": -big, "scale_hi": big})
        _, data = generate_dataset(manifest)
        monkeypatch.setattr(pipeline, "train", lambda *a: pytest.fail("trained"))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="scale_lo.*scale_hi"):
            train_cnn(manifest, 5, data)

    def test_rejects_a_run_without_test_instances(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="n_test"):
            run_experiment(ExperimentManifest(**{**TINY, "n_test": 0}), out)
        assert not out.exists()


def _assert_cli_error(argv, cause, capsys):
    """The CLI exits 1 with an `error:` line that names `cause`, a path or a
    setting."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(cause) in err, err


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_bench_is_no_longer_a_command(self, capsys):
        # timing lives in perfbench; the retired subcommand is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--side", "16", "--n-views", "8"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, capsys):
        rc = main(["fbp", "--sino", "/nonexistent/file.sino", "--out", "/tmp/x.img"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_truncated_input_exit_code(self, tmp_path, capsys):
        geom = uniform_geometry(8, 3)
        path = tmp_path / "t.sino"
        formats.save_sinogram(Sinogram(geometry=geom, values=np.zeros(
            (geom.n_views, geom.n_bins))), path)
        path.write_bytes(path.read_bytes()[:14])  # cut inside the header
        rc = main(["fbp", "--sino", str(path), "--out", str(tmp_path / "x.img")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(path) in err, err

    def test_nan_angles_exit_code(self, tmp_path, capsys):
        path = _nan_angle_sino(tmp_path)
        rc = main(["fbp", "--sino", str(path), "--out", str(tmp_path / "x.img")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(path) in err, err

    def test_eval_empty_image_exit_code(self, tmp_path, capsys):
        ref = tmp_path / "ref.img"
        formats.save_image(Image(Rng(9).normal((8, 8)), 0.25), ref)
        empty = tmp_path / "empty.img"
        empty.write_bytes(formats.IMG_MAGIC + struct.pack("<Id", 0, 0.1))
        rc = main(["eval", "--reference", str(ref), "--candidate", str(empty)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(empty) in err, err

    @pytest.mark.parametrize("kind", ["img", "sino"])
    def test_header_size_beyond_file_exit_code(self, tmp_path, capsys, kind):
        # a u32 size field of 0xFFFFFFFF must not reach the read
        if kind == "img":
            path = tmp_path / "big.img"
            path.write_bytes(formats.IMG_MAGIC + struct.pack("<Id", 0xFFFFFFFF, 0.1)
                             + bytes(64))
            ref = tmp_path / "ref.img"
            formats.save_image(Image(Rng(9).normal((8, 8)), 0.25), ref)
            argv = ["eval", "--reference", str(ref), "--candidate", str(path)]
        else:
            path = tmp_path / "big.sino"
            path.write_bytes(formats.SINO_MAGIC + struct.pack(
                "<IIIdId", 1, 0xFFFFFFFF, 5, 0.02, 8, 0.25) + bytes(64))
            argv = ["fbp", "--sino", str(path), "--out", str(tmp_path / "x.img")]
        _assert_cli_error(argv, path, capsys)

    @pytest.mark.parametrize("fault", ["missing", "shape", "nan", "depth", "gain0",
                                       "nan_offset"])
    def test_apply_rejects_mismatched_weights(self, tmp_path, capsys, fault):
        params = init_params(1, 2, Rng(8))
        if fault == "missing":
            del params.weights["final.w"]
        elif fault == "shape":
            params.weights["enc0_conv1.w"] = params.weights["enc0_conv1.w"][:, :, :2, :2]
        elif fault == "nan":
            params.weights["mid_conv1.w"][0, 0, 0, 0] = np.nan
        elif fault == "gain0":
            params.gain = 0.0
        elif fault == "nan_offset":
            params.offset = np.nan
        else:
            params.depth = 0xFFFFFFFF
        weights = tmp_path / "w.net"
        formats.save_weights(params, weights)
        image = tmp_path / "x.img"
        formats.save_image(Image(Rng(9).normal((8, 8)), 0.25), image)
        _assert_cli_error(["apply", "--weights", str(weights), "--image", str(image),
                           "--out", str(tmp_path / "y.img")], weights, capsys)

    def test_apply_rejects_non_utf8_array_name(self, tmp_path, capsys):
        params = init_params(1, 2, Rng(8))
        weights = tmp_path / "w.net"
        formats.save_weights(params, weights)
        data = bytearray(weights.read_bytes())
        data[data.index(min(params.weights).encode())] = 0xFF  # first array's name
        weights.write_bytes(bytes(data))
        image = tmp_path / "x.img"
        formats.save_image(Image(Rng(9).normal((8, 8)), 0.25), image)
        assert main(["apply", "--weights", str(weights), "--image", str(image),
                     "--out", str(tmp_path / "y.img")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and f"{weights}: array 0 name" in err, err

    def test_run_rejects_manifest_before_any_work(self, tmp_path, capsys):
        mpath = tmp_path / "m.txt"
        mpath.write_text("image_side = 36\ndepth = 3\n")
        out = tmp_path / "out"
        _assert_cli_error(["run", "--manifest", str(mpath), "--out-dir", str(out)],
                          mpath, capsys)
        assert not (out / "results.csv").exists()

    def test_run_rejects_a_repeated_manifest_key(self, tmp_path, capsys):
        mpath = tmp_path / "m.txt"
        ExperimentManifest(**TINY).save(mpath)   # a missing check costs a second
        mpath.write_text(mpath.read_text() + "seed = 4\n")
        out = tmp_path / "out"
        _assert_cli_error(["run", "--manifest", str(mpath), "--out-dir", str(out)],
                          "manifest key 'seed' given twice", capsys)
        assert not out.exists()

    def test_train_rejects_zero_count(self, tmp_path, capsys):
        rc = main(["train", "--count", "0", "--out", str(tmp_path / "w.net")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_train_rejects_zero_channels(self, tmp_path, capsys):
        out = tmp_path / "w.net"
        _assert_cli_error(["train", "--base-channels", "0", "--out", str(out)],
                          "base_channels", capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fbp", "ista", "tv"])
    @pytest.mark.parametrize("factor", ["0", "-4"])
    def test_rejects_subsample_below_one(self, tmp_path, capsys, command, factor):
        geom = uniform_geometry(16, 6)
        path = tmp_path / "s.sino"
        formats.save_sinogram(Sinogram(geometry=geom, values=np.zeros(
            (geom.n_views, geom.n_bins))), path)
        out = tmp_path / "x.img"
        _assert_cli_error([command, "--sino", str(path), "--out", str(out),
                           "--subsample", factor], "subsampling factor", capsys)
        assert not out.exists()

    @pytest.mark.parametrize("record, discrete", [
        ("0 0 nan 0.2 0 1", True),
        ("0 0 nan 0.2 0 1", False),
        ("0 0 0.3 0.2 zero 1", False),
        (None, False),
    ], ids=["nan_discrete", "nan_analytic", "unparsable", "comments_only"])
    def test_project_rejects_bad_phantom(self, tmp_path, capsys, record, discrete):
        lines = ["# sparsect phantom v1 fov_radius=1.0"]
        if record is not None:
            lines += ["0.1 0 0.3 0.2 0 1", record]
        path = tmp_path / "p.txt"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s.sino"
        argv = ["project", "--phantom", str(path), "--side", "16", "--n-views", "4",
                "--out", str(out)] + ["--discrete"] * discrete
        _assert_cli_error(argv, path, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--iters", "--cg-iters"])
    def test_zero_iterations_exit_code(self, tmp_path, capsys, flag):
        geom = uniform_geometry(8, 3)
        path = tmp_path / "s.sino"
        formats.save_sinogram(Sinogram(geometry=geom, values=np.zeros(
            (geom.n_views, geom.n_bins))), path)
        command = "ista" if flag == "--iters" else "tv"
        rc = main([command, "--sino", str(path), "--out", str(tmp_path / "x.img"),
                   flag, "0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_end_to_end_flow(self, tmp_path, capsys):
        d = str(tmp_path)
        assert main(["gen-data", "--seed", "1", "--side", "32", "--n-views", "30",
                     "--count", "1", "--out-dir", d]) == 0
        sino = os.path.join(d, "sino_0000.sino")
        full = os.path.join(d, "full.img")
        sub = os.path.join(d, "sub.img")
        assert main(["fbp", "--sino", sino, "--out", full]) == 0
        assert main(["fbp", "--sino", sino, "--out", sub, "--subsample", "5",
                     "--pgm"]) == 0
        assert os.path.exists(os.path.join(d, "sub.pgm"))
        assert main(["tv", "--sino", sino, "--out", os.path.join(d, "tv.img"),
                     "--subsample", "5", "--iters", "10"]) == 0
        assert main(["ista", "--sino", sino, "--out", os.path.join(d, "is.img"),
                     "--fista", "--iters", "20"]) == 0
        assert main(["eval", "--reference", full, "--candidate",
                     os.path.join(d, "tv.img")]) == 0
        out = capsys.readouterr().out
        assert "snr_db =" in out

    def test_tv_command_runs_the_pipeline_settings(self, tmp_path, capsys, cold_caches):
        d = str(tmp_path)
        assert main(["gen-data", "--seed", "1", "--count", "1", "--out-dir", d]) == 0
        sino = os.path.join(d, "sino_0000.sino")
        out = os.path.join(d, "tv.img")
        # the command solves cold, the check warm
        assert main(["tv", "--sino", sino, "--out", out, "--lam", "3e-3",
                     "--subsample", "7"]) == 0
        sub = subsample_views(formats.load_sinogram(sino), 7)
        expected = tv_admm_reconstruct(sub, _tv_config(ExperimentManifest(), 3e-3))
        assert np.array_equal(formats.load_image(out).values, expected.values)

    def test_tv_history_reports_cg_steps(self, tmp_path, capsys):
        d = str(tmp_path)
        assert main(["gen-data", "--seed", "1", "--side", "32", "--n-views", "30",
                     "--count", "1", "--out-dir", d]) == 0
        hist = os.path.join(d, "tv.csv")
        assert main(["tv", "--sino", os.path.join(d, "sino_0000.sino"), "--out",
                     os.path.join(d, "tv.img"), "--subsample", "5", "--tol", "0",
                     "--iters", "12", "--history", hist]) == 0
        lines = open(hist).read().strip().split("\n")
        assert lines[0] == "iter,objective,primal,dual,cg_steps,cg_resid"
        steps = [int(line.split(",")[4]) for line in lines[1:]]
        assert len(steps) == 12 and min(steps) >= 1
        assert f"(12 iterations, {sum(steps)} CG steps" in capsys.readouterr().out

    def test_tv_lambda_zero_reports_its_solve(self, tmp_path, capsys):
        d = str(tmp_path)
        assert main(["gen-data", "--seed", "3", "--side", "32", "--n-views", "30",
                     "--count", "1", "--out-dir", d]) == 0
        hist = os.path.join(d, "ls.csv")
        assert main(["tv", "--sino", os.path.join(d, "sino_0000.sino"), "--out",
                     os.path.join(d, "ls.img"), "--lam", "0", "--history", hist]) == 0
        lines = open(hist).read().strip().split("\n")
        assert len(lines) == 2, lines
        it, _, primal, dual, steps, _ = lines[1].split(",")
        assert (it, float(primal), float(dual)) == ("0", 0.0, 0.0) and int(steps) >= 1
        assert f"(1 iterations, {steps} CG steps" in capsys.readouterr().out

    def test_project_discrete_vs_analytic(self, tmp_path, capsys):
        d = str(tmp_path)
        main(["gen-data", "--seed", "2", "--side", "32", "--n-views", "10",
              "--count", "1", "--out-dir", d])
        ph = os.path.join(d, "phantom_0000.txt")
        a = os.path.join(d, "a.sino")
        b = os.path.join(d, "b.sino")
        assert main(["project", "--phantom", ph, "--side", "32", "--n-views",
                     "10", "--out", a]) == 0
        assert main(["project", "--phantom", ph, "--side", "32", "--n-views",
                     "10", "--out", b, "--discrete"]) == 0
        sa = formats.load_sinogram(a).values
        sb = formats.load_sinogram(b).values
        assert np.linalg.norm(sa - sb) / np.linalg.norm(sa) < 0.15

    def test_gen_data_rejects_a_bad_side_before_writing_any_file(self, tmp_path, capsys):
        assert main(["gen-data", "--side", "8", "--count", "2",
                     "--out-dir", str(tmp_path)]) == 1
        assert "error: rasterize needs side >= 16" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_gen_data_rejects_a_bad_side_before_making_the_directory(self, tmp_path, capsys):
        assert main(["gen-data", "--side", "8", "--out-dir", str(tmp_path / "d")]) == 1
        assert "error: rasterize needs side >= 16" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_gen_data_rejects_a_negative_count(self, tmp_path, capsys):
        assert main(["gen-data", "--count", "-4", "--out-dir", str(tmp_path / "d")]) == 1
        assert "error: --count must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["gen-data", "project", "certify"])
    @pytest.mark.parametrize("side, n_views", [(0, 30), (32, 0)])
    def test_rejects_an_empty_geometry(self, tmp_path, capsys, command, side, n_views):
        argv = [command, "--side", str(side), "--n-views", str(n_views)]
        argv += {"gen-data": ["--out-dir", str(tmp_path / "d")],
                 "project": ["--phantom", str(tmp_path / "p.txt"),
                             "--out", str(tmp_path / "s.sino")]}.get(command, [])
        _assert_cli_error(argv, f"not {side} and {n_views}", capsys)
        assert list(tmp_path.iterdir()) == []

    def test_certify_command(self, capsys):
        assert main(["certify", "--side", "64", "--n-views", "90"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_certify_rejects_a_side_below_eight(self, capsys):
        assert main(["certify", "--side", "5", "--n-views", "30"]) == 1
        captured = capsys.readouterr()
        assert "error: certify needs image side >= 8, got 5" in captured.err
        assert "PASS" not in captured.out

    def test_run_command(self, tmp_path, capsys):
        m = ExperimentManifest(**TINY)
        mpath = tmp_path / "m.txt"
        m.save(mpath)
        out = tmp_path / "out"
        assert main(["run", "--manifest", str(mpath), "--out-dir", str(out)]) == 0
        assert (out / "results.csv").exists()

    def test_train_and_apply_match_run(self, tmp_path, capsys):
        # `train` with TINY's settings writes the run's factor-5 network, and
        # gen-data -> Hann FBP -> apply -> eval reproduces its first CNN score
        run_dir = tmp_path / "run"
        run_experiment(ExperimentManifest(**TINY), run_dir)
        net = tmp_path / "t.net"
        assert main(["train", "--seed", "3", "--side", "32", "--n-views", "30",
                     "--count", "6", "--factor", "5", "--epochs", "2", "--depth", "1",
                     "--base-channels", "4", "--out", str(net)]) == 0
        assert net.read_bytes() == (run_dir / "net_x5.net").read_bytes()
        d = str(tmp_path)
        assert main(["gen-data", "--seed", "3", "--side", "32", "--n-views", "30",
                     "--count", "7", "--out-dir", d]) == 0
        sino = os.path.join(d, "sino_0006.sino")   # test index 0 of TINY
        full, sub, cnn = (os.path.join(d, n) for n in ("full.img", "sub.img", "cnn.img"))
        assert main(["fbp", "--sino", sino, "--out", full]) == 0
        assert main(["fbp", "--sino", sino, "--out", sub, "--subsample", "5",
                     "--apodization", "hann"]) == 0
        assert main(["apply", "--weights", str(net), "--image", sub, "--out", cnn]) == 0
        capsys.readouterr()
        assert main(["eval", "--reference", full, "--candidate", cnn]) == 0
        rows = (run_dir / "results.csv").read_text().splitlines()
        expected = next(r for r in rows if r.startswith("5,cnn,0,")).split(",")[-1]
        assert capsys.readouterr().out.strip() == f"snr_db = {expected}"
