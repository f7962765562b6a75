"""Command-line interface smoke tests on tiny configurations."""

import csv
import dataclasses
import hashlib
import inspect
import json
import os
import struct

import numpy as np
import pytest

from nsrecon import cli, nn
from nsrecon.cli import main, parse_config_file
from nsrecon.data import export_dataset
from nsrecon.experiments import (EvalConfig, Problem, TrainConfig,
                                 convergence_study, dc_audit, evaluate,
                                 make_rate_operator, train)
from nsrecon.regularize import SourceCondition


def write_config(tmp_path, name, **kwargs):
    path = tmp_path / name
    lines = [f"{k} = {v}" for k, v in kwargs.items()]
    path.write_text("# test configuration\n" + "\n".join(lines) + "\n")
    return str(path)


def read_summary(out):
    """out/summary.json, parsed strictly: RFC 8259 has no NaN or Infinity,
    which json.loads would otherwise accept."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads((out / "summary.json").read_text(),
                      parse_constant=reject)


@pytest.fixture
def ckpts(tmp_path):
    arch = nn.Architecture()
    paths = {}
    for kind in ("resnet", "dcnet"):
        paths[kind] = tmp_path / f"{kind}.ckpt"
        nn.save_params(paths[kind], nn.init_params(arch, 0))
    return paths


class TestConfigParsing:
    def test_key_value_and_comments(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("a = 1  # inline\n\n# full line\nb=two\n")
        assert parse_config_file(path) == {"a": "1", "b": "two"}

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("just a line\n")
        with pytest.raises(ValueError):
            parse_config_file(path)


class TestGenData:
    def test_writes_manifest_and_images(self, tmp_path):
        out = tmp_path / "data"
        cfg = write_config(tmp_path, "cfg", n=2, image_size=32,
                           patch_size=10, kind="OOD")
        assert main(["gen-data", "--seed", "1", "--out", str(out),
                     "--config", cfg]) == 0
        rows = (out / "manifest.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert (out / "x_0000.pgm").exists()
        assert (out / "y_0001.pgm").exists()
        assert (out / "y_0001.npy").exists()
        summary = read_summary(out)
        assert summary["command"] == "gen-data" and summary["n"] == 2
        assert summary["problem"] == {"image_size": 32}
        assert "image_size" not in summary

    def test_bad_kind_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg", kind="nope")
        code = main(["gen-data", "--out", str(tmp_path / "o"),
                     "--config", cfg])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_fails_naming_sigma(self, tmp_path, capfd,
                                                 sigma):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "cfg", sigma=sigma, n=1,
                           image_size=16, patch_size=6)
        assert main(["gen-data", "--out", str(out), "--config", cfg]) == 1
        assert capfd.readouterr().err.startswith(
            "nsrecon gen-data: error: sigma must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("patch_size", [-4, 0])
    def test_non_positive_patch_size_fails_naming_it(self, tmp_path, capfd,
                                                     patch_size):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "cfg", n=1, image_size=32,
                           patch_size=patch_size)
        assert main(["gen-data", "--out", str(out), "--config", cfg]) == 1
        assert capfd.readouterr().err.startswith(
            "nsrecon gen-data: error: need 1 <= patch_size <= 32")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("n", 0, "n must be >= 1"),
        ("kind", "nope", "kind must be one of ('ID', 'OOD')")])
    def test_bad_key_fails_before_any_file(self, tmp_path, capsys, key,
                                           value, message):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "cfg", image_size=32, **{key: value})
        assert main(["gen-data", "--out", str(out), "--config", cfg]) == 1
        assert capsys.readouterr().err == \
            f"nsrecon gen-data: error: {message}\n"
        assert not out.exists()

    def test_files_equal_an_export_of_the_whole_dataset(self, tmp_path):
        cfg = write_config(tmp_path, "cfg", n=3, kind="OOD", image_size=32,
                           patch_size=6)
        assert main(["gen-data", "--seed", "4", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 0
        ref = tmp_path / "ref"
        export_dataset(Problem.benchmark(32).dataset(3, "OOD", 4, 0.05, 6),
                       ref)
        assert {p.name for p in (tmp_path / "o").iterdir()} == \
            {p.name for p in ref.iterdir()} | {"summary.json"}
        for path in ref.iterdir():
            assert (tmp_path / "o" / path.name).read_bytes() == \
                path.read_bytes()

    def test_memory_is_constant_in_n(self, tmp_path, traced_peak):
        # each sample is written as it is drawn; drawing all n first grew
        # the peak by 16 KB a sample (x and y at 32 x 32)
        def peak(n):
            cfg = write_config(tmp_path, f"cfg{n}", n=n, image_size=32)
            return traced_peak(main, ["gen-data", "--out",
                                      str(tmp_path / f"o{n}"), "--config",
                                      cfg])

        peak(1)  # first-call set-up
        assert peak(50) - peak(5) < 100_000
        assert len(list((tmp_path / "o50").glob("y_*.npy"))) == 50

    def test_failure_keeps_an_existing_directory(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        cfg = write_config(tmp_path, "cfg", sigma="nan")
        assert main(["gen-data", "--out", str(out), "--config", cfg]) == 1
        assert out.is_dir()


class TestTrainEval:
    def test_train_eval_audit_pipeline(self, tmp_path):
        ckpts = {}
        for kind in ("resnet", "dcnet"):
            out = tmp_path / f"train-{kind}"
            cfg = write_config(tmp_path, f"cfg-{kind}", model_kind=kind,
                               epochs=3, image_size=32)
            assert main(["train", "--seed", "0", "--out", str(out),
                         "--config", cfg]) == 0
            ckpts[kind] = out / f"{kind}.ckpt"
            loss_rows = (out / "loss.csv").read_text().strip().splitlines()
            assert len(loss_rows) == 4  # header + one row per epoch
            arch, _ = nn.load_params(ckpts[kind])
            assert arch == nn.Architecture()
            summary = read_summary(out)
            assert summary["problem"] == {"image_size": 32,
                                          "alpha_tik": 0.01}
            assert summary["wall_s"] > 0

        out = tmp_path / "eval"
        cfg = write_config(tmp_path, "cfg-eval",
                           resnet_ckpt=ckpts["resnet"],
                           dcnet_ckpt=ckpts["dcnet"], image_size=32,
                           n_per_kind=2, n_dump=1)
        assert main(["eval", "--seed", "0", "--out", str(out),
                     "--config", cfg]) == 0
        assert (out / "eval.csv").exists()
        assert (out / "sample0_truth.pgm").exists()
        assert (out / "sample0_dcnet.pgm").exists()
        summary = read_summary(out)
        assert "tikhonov" in summary["means"]
        assert "ID" in summary["means"]["tikhonov"]
        assert summary["wall_s"] > 0

        out = tmp_path / "audit"
        cfg = write_config(tmp_path, "cfg-audit", ckpt=ckpts["dcnet"],
                           model_kind="dcnet", n=4, image_size=32)
        assert main(["dc-audit", "--seed", "0", "--out", str(out),
                     "--config", cfg]) == 0
        summary = read_summary(out)
        assert summary["max_relative_residual_gap"] <= 1e-10
        assert summary["wall_s"] > 0

    def test_eval_without_dumps(self, tmp_path, ckpts):
        out = tmp_path / "eval"
        cfg = write_config(tmp_path, "cfg", resnet_ckpt=ckpts["resnet"],
                           dcnet_ckpt=ckpts["dcnet"], image_size=32,
                           n_per_kind=1, n_dump=0)
        assert main(["eval", "--out", str(out), "--config", cfg]) == 0
        assert (out / "eval.csv").exists()
        assert (out / "summary.json").exists()
        assert not list(out.glob("*.pgm"))

    @pytest.mark.parametrize("n_dump", [-1, 2])
    def test_eval_dumps_out_of_range_fail_before_evaluating(
            self, tmp_path, ckpts, capsys, n_dump):
        # a dumped sample is one of the n_per_kind evaluated ID samples
        out = tmp_path / "eval"
        cfg = write_config(tmp_path, "cfg", resnet_ckpt=ckpts["resnet"],
                           dcnet_ckpt=ckpts["dcnet"], image_size=32,
                           n_per_kind=1, n_dump=n_dump)
        assert main(["eval", "--out", str(out), "--config", cfg]) == 1
        assert "nsrecon eval: error: n_dump" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_reconstructs_each_sample_once(self, tmp_path, ckpts,
                                                monkeypatch):
        calls = []
        reconstruct = Problem.reconstruct

        def counted(problem, y):
            calls.append(y)
            return reconstruct(problem, y)

        monkeypatch.setattr(Problem, "reconstruct", counted)
        out = tmp_path / "eval"
        cfg = write_config(tmp_path, "cfg", resnet_ckpt=ckpts["resnet"],
                           dcnet_ckpt=ckpts["dcnet"], image_size=32,
                           n_per_kind=2, n_dump=2)
        assert main(["eval", "--out", str(out), "--config", cfg]) == 0
        assert len(calls) == 2 * 2
        assert len(list(out.glob("sample*.pgm"))) == 2 * 4

    def test_eval_without_checkpoints_fails(self, tmp_path, capsys):
        code = main(["eval", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dc-audit", "eval"])
def test_checkpoint_declaring_more_than_its_file_fails(tmp_path, capsys,
                                                       command):
    # header width 2**31 - 1 declares a first kernel of about 155 GB: the
    # run ends on one error line, with no traceback and no --out directory
    path = tmp_path / "net.ckpt"
    nn.save_params(path, nn.init_params(nn.Architecture(), 0))
    data = bytearray(path.read_bytes())
    at = len(nn._CKPT_MAGIC) + 4  # the header's width, layer 0's out_ch
    data[at:at + 8] = struct.pack("<ii", 2**31 - 1, 2**31 - 1)
    path.write_bytes(bytes(data))
    keys = ({"ckpt": path} if command == "dc-audit"
            else {"resnet_ckpt": path, "dcnet_ckpt": path})
    cfg = write_config(tmp_path, "cfg", image_size=32, **keys)
    out = tmp_path / "o"
    assert main([command, "--out", str(out), "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"nsrecon {command}: error: {path}: truncated checkpoint\n")
    assert not out.exists()


@pytest.mark.parametrize("layers, width, message", [
    (5, -1, "width must be >= 1"), (1, 6, "need at least 2 layers")],
    ids=["width-1", "one-layer"])
def test_eval_names_the_checkpoint_no_architecture_takes(
        tmp_path, capsys, ckpts, layers, width, message):
    # of eval's two checkpoints, the error line names the bad one
    path = ckpts["dcnet"]
    data = bytearray(path.read_bytes())
    at = len(nn._CKPT_MAGIC)  # the header's layer count and width
    data[at:at + 8] = struct.pack("<ii", layers, width)
    path.write_bytes(bytes(data))
    cfg = write_config(tmp_path, "cfg", image_size=32,
                       resnet_ckpt=ckpts["resnet"], dcnet_ckpt=path)
    out = tmp_path / "o"
    assert main(["eval", "--out", str(out), "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"nsrecon eval: error: {path}: {message}\n")
    assert not out.exists()


class TestDcAuditErrors:
    def ckpt(self, tmp_path):
        arch = nn.Architecture()
        path = tmp_path / "net.ckpt"
        nn.save_params(path, nn.init_params(arch, 0))
        return path

    def test_truncated_checkpoint_fails(self, tmp_path, capsys):
        path = self.ckpt(tmp_path)
        data = path.read_bytes()
        cfg = write_config(tmp_path, "cfg", ckpt=path, n=2, image_size=32)
        for size in (30, 300):  # inside a header int, inside an array
            path.write_bytes(data[:size])
            assert main(["dc-audit", "--out", str(tmp_path / "o"),
                         "--config", cfg]) == 1
            assert "nsrecon dc-audit: error:" in capsys.readouterr().err

    def test_header_width_mismatch_fails(self, tmp_path, capsys):
        path = self.ckpt(tmp_path)
        data = bytearray(path.read_bytes())
        at = len(nn._CKPT_MAGIC) + 4  # the header's width field
        data[at:at + 4] = struct.pack("<i", 5)
        path.write_bytes(bytes(data))
        cfg = write_config(tmp_path, "cfg", ckpt=path, n=2, image_size=32)
        assert main(["dc-audit", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 1
        assert "nsrecon dc-audit: error:" in capsys.readouterr().err

    def test_non_finite_checkpoint_fails(self, tmp_path, capsys):
        path = self.ckpt(tmp_path)
        data = bytearray(path.read_bytes())
        at = len(nn._CKPT_MAGIC) + 8 + 16  # layer 0's first kernel tap
        data[at:at + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(data))
        cfg = write_config(tmp_path, "cfg", ckpt=path, n=2, image_size=32)
        out = tmp_path / "o"
        assert main(["dc-audit", "--out", str(out), "--config", cfg]) == 1
        assert "nsrecon dc-audit: error:" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_zero_samples_fails_without_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg", ckpt=self.ckpt(tmp_path), n=0,
                           image_size=32)
        out = tmp_path / "o"
        assert main(["dc-audit", "--out", str(out), "--config", cfg]) == 1
        assert "nsrecon dc-audit: error:" in capsys.readouterr().err
        assert not (out / "dc_audit.csv").exists()


class TestRates:
    @pytest.mark.parametrize("filter_kind", ["tikhonov", "tsvd",
                                             "landweber"])
    def test_rates_outputs(self, tmp_path, filter_kind):
        out = tmp_path / "rates"
        cfg = write_config(tmp_path, "cfg", mu=0.5, trials=3, n_deltas=3,
                           filter=filter_kind)
        assert main(["rates", "--seed", "0", "--out", str(out),
                     "--config", cfg]) == 0
        summary = read_summary(out)
        assert summary["filter"] == filter_kind
        assert summary["theory_error_slope"] == pytest.approx(0.5)
        assert np.isfinite(summary["error_slope"])
        rows = (out / "rates.csv").read_text().strip().splitlines()
        assert len(rows) == 4

    def test_two_deltas_give_no_halfwidth(self, tmp_path):
        out = tmp_path / "rates"
        cfg = write_config(tmp_path, "cfg", trials=2, n_deltas=2)
        assert main(["rates", "--seed", "0", "--out", str(out),
                     "--config", cfg]) == 0
        summary = read_summary(out)
        assert np.isfinite(summary["error_slope"])
        assert summary["error_slope_halfwidth"] is None
        assert summary["residual_slope_halfwidth"] is None

    @pytest.mark.parametrize("keys", [{"n_deltas": 0}, {"n_deltas": 1},
                                      {"trials": 0}, {"delta_min": 0.1}])
    def test_degenerate_study_fails(self, tmp_path, capsys, keys):
        cfg = write_config(tmp_path, "cfg", **keys)
        assert main(["rates", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 1
        assert "nsrecon rates: error:" in capsys.readouterr().err

    def test_nan_delta_fails_naming_delta(self, tmp_path, capfd):
        cfg = write_config(tmp_path, "cfg", delta_min="nan")
        assert main(["rates", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 1
        err = capfd.readouterr().err
        assert err.startswith("nsrecon rates: error: delta must be")
        assert "DLASCL" not in err

    def test_nan_c_fails_naming_c(self, tmp_path, capfd):
        cfg = write_config(tmp_path, "cfg", c="nan")
        assert main(["rates", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 1
        assert capfd.readouterr().err.startswith(
            "nsrecon rates: error: c must be finite and positive")

    @pytest.mark.parametrize("filter_kind", ["tikhonov", "tsvd"])
    def test_theory_slope_saturates_with_the_filter(self, tmp_path,
                                                    filter_kind):
        # at mu = 2 Tikhonov (mu_max = 1) saturates at 2/5, TSVD does not:
        # 4/5; the measured slopes are 0.368 and 0.776 at seed 0
        out = tmp_path / "rates"
        cfg = write_config(tmp_path, "cfg", mu=2, filter=filter_kind)
        assert main(["rates", "--seed", "0", "--out", str(out),
                     "--config", cfg]) == 0
        summary = read_summary(out)
        assert summary["theory_error_slope"] == pytest.approx(
            {"tikhonov": 0.4, "tsvd": 0.8}[filter_kind])
        assert abs(summary["theory_error_slope"]
                   - summary["error_slope"]) <= 0.1

    @pytest.mark.parametrize("keys", [{"rho": 0}, {"mu": -1},
                                      {"filter": "ridge"}])
    def test_bad_source_fails_before_the_operator(self, tmp_path, capsys,
                                                  monkeypatch, keys):
        message = ("unknown filter kind 'ridge'" if "filter" in keys
                   else "need finite mu >= 0 and rho > 0")
        draws = []
        monkeypatch.setattr(cli, "make_rate_operator",
                            lambda **kw: draws.append(kw))
        cfg = write_config(tmp_path, "cfg", **keys)
        assert main(["rates", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(
            "nsrecon rates: error: " + message)
        assert draws == []


@pytest.mark.parametrize("command, keys", [
    ("train", dict(epochs=2)),
    ("eval", dict(resnet_ckpt="resnet.ckpt", dcnet_ckpt="dcnet.ckpt")),
    ("dc-audit", dict(ckpt="dcnet.ckpt"))],
    ids=["train", "eval", "dc-audit"])
def test_image_size_below_the_patch_fails_before_any_work(
        tmp_path, capsys, monkeypatch, command, keys):
    # Problem allows image_size >= 14, but these commands draw 20-pixel
    # patches: the run stops before it trains or reads a checkpoint
    def forbidden(*args):
        raise AssertionError("trained or read a checkpoint")

    monkeypatch.setattr(cli, "train", forbidden)
    monkeypatch.setattr(cli, "_load", forbidden)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg", image_size=16, **keys)
    assert main([command, "--out", str(out), "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"nsrecon {command}: error: image_size must be >= 20 to hold the "
        f"20-pixel patch that {command} draws, got 16\n")
    assert not out.exists()


def test_out_directory_created(tmp_path):
    nested = tmp_path / "a" / "b" / "c"
    cfg = write_config(tmp_path, "cfg", n=1, image_size=32, patch_size=10)
    assert main(["gen-data", "--out", str(nested), "--config", cfg]) == 0
    assert os.path.isdir(nested)


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_infinite_alpha_fails_naming_alpha(tmp_path, capsys, monkeypatch,
                                           command):
    # rejected with the problem, before any sample is drawn; gen-data
    # reconstructs nothing, so alpha_tik is not one of its keys
    monkeypatch.setattr(Problem, "dataset", None)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg", alpha_tik="inf")
    assert main([command, "--out", str(out), "--config", cfg]) == 1
    assert capsys.readouterr().err == f"nsrecon {command}: error: " + (
        f"{cfg}: unknown key 'alpha_tik'\n" if command == "gen-data" else
        "alpha must be finite and positive\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "eval",
                                     "dc-audit", "rates"])
def test_unknown_key_fails_naming_key_and_file(tmp_path, capsys,
                                               monkeypatch, command):
    # a typo such as epoch for epochs fails before any work or output
    for name, (_, keys) in cli.COMMANDS.items():
        monkeypatch.setitem(cli.COMMANDS, name, (None, keys))
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg", epoch=2)
    assert main([command, "--out", str(out), "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"nsrecon {command}: error: {cfg}: unknown key 'epoch'\n")
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_negative_seed_fails_naming_seed(tmp_path, capsys, command):
    # numpy's own refusal of a negative seed names no field
    out = tmp_path / "o"
    assert main([command, "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"nsrecon {command}: error: --seed must be >= 0, got -1\n")
    assert not out.exists()


def test_negative_epochs_fails_naming_epochs(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg", epochs=-1)
    assert main(["train", "--out", str(tmp_path / "o"),
                 "--config", cfg]) == 1
    assert ("nsrecon train: error: epochs must be >= 0"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, value", [("epochs", "1.5"),
                                        ("image_size", "big")])
def test_unparsed_value_fails_naming_key(tmp_path, capsys, key, value):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg", **{key: value})
    assert main(["train", "--out", str(out), "--config", cfg]) == 1
    assert (f"nsrecon train: error: {key} must be int, got '{value}'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ("missing", "No such file"),
    ("n 3\n", ":1: expected key=value"),
    ("epochs = 1\nepochs = 2\n", ":2: epochs set twice"),
], ids=["missing", "no-equals", "repeated-key"])
def test_bad_config_fails_without_traceback(tmp_path, capsys, config,
                                            message):
    # a missing file, a line without '=', or a key set twice fails before
    # the output directory is made
    path = tmp_path / "cfg"
    if config != "missing":
        path.write_text(config)
    out = tmp_path / "o"
    assert main(["gen-data", "--out", str(out), "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "nsrecon gen-data: error: " in err and "Traceback" not in err
    assert str(path) in err and message in err
    assert not out.exists()


def echoed(summary, key):
    """Config key `key` as summary.json records it: at the top level, in
    the problem echo, or in train's or eval's config."""
    config = summary.get("config", {})
    if key in ("layers", "width"):
        return config["arch"][key]
    if key == "init_seed_offset":
        return config["init_seed"] - summary["seed"]
    for where in (summary, summary.get("problem", {}), config):
        if key in where:
            return where[key]
    raise AssertionError(f"{key} is not in summary.json")


# a small config of each subcommand, every key set off its default; eval's
# and dc-audit's checkpoint paths come from the ckpts fixture
ECHO_CONFIGS = {
    "gen-data": dict(n=1, kind="OOD", sigma=0.1, patch_size=6,
                     image_size=32),
    "train": dict(epochs=1, lr=0.002, weight_decay=0.0, sigma=0.1,
                  model_kind="dcnet", init_seed_offset=3, layers=3, width=4,
                  image_size=32, alpha_tik=0.02),
    "eval": dict(n_per_kind=1, sigma=0.1, n_dump=1, image_size=32,
                 alpha_tik=0.02),
    "dc-audit": dict(model_kind="resnet", n=1, sigma=0.1, image_size=32,
                     alpha_tik=0.02),
    "rates": dict(mu=1.0, rho=2.0, filter="tsvd", trials=2, c=0.5,
                  n_deltas=2, delta_max=0.01, delta_min=1e-4),
}


@pytest.mark.parametrize("command", ECHO_CONFIGS)
def test_summary_echoes_every_key(tmp_path, ckpts, command):
    # every key differs from its default, so each value read back is the
    # one the config set
    paths = {"eval": {"resnet_ckpt": ckpts["resnet"],
                      "dcnet_ckpt": ckpts["dcnet"]},
             "dc-audit": {"ckpt": ckpts["resnet"]}}
    keys = {**ECHO_CONFIGS[command], **paths.get(command, {})}
    _, defaults = cli.COMMANDS[command]
    assert set(keys) == set(defaults)
    assert all(keys[key] != default for key, (_, default) in defaults.items())
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg", **keys)
    assert main([command, "--seed", "2", "--out", str(out),
                 "--config", cfg]) == 0
    summary = read_summary(out)
    assert summary["command"] == command and summary["seed"] == 2
    for key, value in keys.items():
        cast = defaults[key][0]
        assert echoed(summary, key) == cast(str(value)), key


def test_summaries_name_checkpoint_digests(tmp_path):
    # two checkpoints with different bytes, so that a swapped digest shows
    arch = nn.Architecture(layers=2, width=2)
    paths, digests = {}, {}
    for seed, kind in enumerate(("resnet", "dcnet")):
        paths[kind] = tmp_path / f"{kind}.ckpt"
        nn.save_params(paths[kind], nn.init_params(arch, seed))
        digests[kind] = hashlib.sha256(paths[kind].read_bytes()).hexdigest()
    assert digests["resnet"] != digests["dcnet"]
    cfg = write_config(tmp_path, "eval.cfg", resnet_ckpt=paths["resnet"],
                       dcnet_ckpt=paths["dcnet"], image_size=32,
                       n_per_kind=1, n_dump=0)
    assert main(["eval", "--out", str(tmp_path / "e"), "--config", cfg]) == 0
    summary = read_summary(tmp_path / "e")
    assert summary["resnet_ckpt_sha256"] == digests["resnet"]
    assert summary["dcnet_ckpt_sha256"] == digests["dcnet"]
    cfg = write_config(tmp_path, "audit.cfg", ckpt=paths["resnet"],
                       model_kind="resnet", n=1, image_size=32)
    assert main(["dc-audit", "--out", str(tmp_path / "a"),
                 "--config", cfg]) == 0
    summary = read_summary(tmp_path / "a")
    assert summary["ckpt_sha256"] == digests["resnet"]


@pytest.mark.parametrize("command, keys, missing", [
    ("eval", {}, "resnet_ckpt"),
    ("eval", {"resnet_ckpt": "r.ckpt"}, "dcnet_ckpt"),
    ("dc-audit", {"n": 2}, "ckpt"),
], ids=["eval-resnet", "eval-dcnet", "dc-audit"])
def test_missing_key_fails_naming_it(tmp_path, capsys, command, keys,
                                     missing):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "cfg", **keys)
    assert main([command, "--out", str(out), "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"nsrecon {command}: error: missing key {missing!r}\n")
    assert not out.exists()


def test_cli_defaults_are_the_librarys():
    # each default a COMMANDS key repeats, with its type, is the one the
    # library call it feeds would take by itself
    def fields(cls):
        return {f.name: f.default for f in dataclasses.fields(cls)}

    def params(fn):
        return {name: p.default
                for name, p in inspect.signature(fn).parameters.items()}

    tc, arch, ec = fields(TrainConfig), fields(nn.Architecture), fields(
        EvalConfig)
    bench, study = params(Problem.benchmark), params(convergence_study)
    library = {
        **{("train", k): tc[k] for k in ("epochs", "lr", "weight_decay",
                                         "sigma", "model_kind")},
        **{("train", k): arch[k] for k in ("layers", "width")},
        ("eval", "n_per_kind"): ec["n_per_kind"],
        ("eval", "sigma"): ec["sigma"], ("dc-audit", "sigma"): ec["sigma"],
        **{(c, "image_size"): bench["image_size"]
           for c in ("gen-data", "train", "eval", "dc-audit")},
        **{(c, "alpha_tik"): bench["alpha"]
           for c in ("train", "eval", "dc-audit")},
        ("gen-data", "patch_size"): params(Problem.dataset)["patch_size"],
        ("rates", "trials"): study["trials"], ("rates", "c"): study["c"],
    }
    for (command, key), default in library.items():
        cast, cli_default = cli.COMMANDS[command][1][key]
        assert type(default) is cast, (command, key)
        assert type(cli_default) is cast, (command, key)
        assert cli_default == default, (command, key)


def assert_table(path, records):
    """The CSV at path reads back as records: the same keys in the same
    order, ints and strings as written, floats float-equal."""
    with open(path, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == len(records) > 0
    for row, record in zip(table, records):
        assert list(row) == list(record)
        for key, value in record.items():
            assert type(value)(row[key]) == value, key


class TestTables:
    """Each CSV the CLI writes holds the records of the library call it
    runs, at the seed and configuration the CLI passes."""

    PROBLEM = Problem.benchmark(32)

    def test_manifest_holds_the_samples(self, tmp_path):
        cfg = write_config(tmp_path, "cfg", n=3, kind="OOD", image_size=32,
                           patch_size=6)
        assert main(["gen-data", "--seed", "4", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 0
        samples = self.PROBLEM.dataset(3, "OOD", 4, 0.05, 6)
        assert_table(tmp_path / "o" / "manifest.csv", [
            {"index": i, "kind": s.kind, "seed": s.seed,
             "patch_row": s.position[0], "patch_col": s.position[1],
             "delta": s.delta, "x_file": f"x_{i:04d}.pgm",
             "y_file": f"y_{i:04d}.pgm", "y_npy": f"y_{i:04d}.npy"}
            for i, s in enumerate(samples)])

    @pytest.mark.parametrize("kind", ["resnet", "dcnet"])
    def test_loss_holds_the_training_log(self, tmp_path, kind):
        cfg = write_config(tmp_path, "cfg", epochs=3, model_kind=kind,
                           image_size=32)
        assert main(["train", "--seed", "2", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 0
        _, log = train(TrainConfig(epochs=3, model_kind=kind, data_seed=2,
                                   init_seed=3), self.PROBLEM)
        assert_table(tmp_path / "o" / "loss.csv",
                     [{"epoch": i, "loss": loss} for i, loss in
                      enumerate(log)])

    def test_no_epochs_give_a_header_only_loss_table(self, tmp_path):
        cfg = write_config(tmp_path, "cfg", epochs=0, image_size=32)
        out = tmp_path / "o"
        assert main(["train", "--out", str(out), "--config", cfg]) == 0
        assert (out / "loss.csv").read_text().splitlines() == ["epoch,loss"]
        summary = read_summary(out)
        assert summary["final_loss"] is None

    def test_eval_holds_the_report_rows(self, tmp_path, ckpts):
        cfg = write_config(tmp_path, "cfg", resnet_ckpt=ckpts["resnet"],
                           dcnet_ckpt=ckpts["dcnet"], image_size=32,
                           n_per_kind=2, n_dump=0)
        assert main(["eval", "--seed", "1", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 0
        params = {k: nn.load_params(ckpts[k])[1] for k in ckpts}
        report = evaluate(params["resnet"], params["dcnet"],
                          EvalConfig(n_per_kind=2, eval_seed=10_001),
                          self.PROBLEM)
        assert_table(tmp_path / "o" / "eval.csv", report.rows)

    @pytest.mark.parametrize("kind", ["resnet", "dcnet"])
    def test_dc_audit_holds_the_audit_rows(self, tmp_path, ckpts, kind):
        cfg = write_config(tmp_path, "cfg", ckpt=ckpts[kind],
                           model_kind=kind, n=3, image_size=32)
        assert main(["dc-audit", "--seed", "5", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 0
        rows = dc_audit(nn.load_params(ckpts[kind])[1], kind, 3, 5,
                        EvalConfig(), self.PROBLEM)
        assert_table(tmp_path / "o" / "dc_audit.csv", rows)

    def test_dc_audit_writes_every_key_of_its_rows(self, tmp_path, ckpts,
                                                   monkeypatch):
        # the table's columns are the rows' keys, not a list in the CLI
        def audit(*args):
            return [{**r, "extra": 0.25 * i}
                    for i, r in enumerate(dc_audit(*args))]

        monkeypatch.setattr(cli, "dc_audit", audit)
        cfg = write_config(tmp_path, "cfg", ckpt=ckpts["dcnet"], n=2,
                           image_size=32)
        assert main(["dc-audit", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 0
        rows = audit(nn.load_params(ckpts["dcnet"])[1], "dcnet", 2, 0,
                     EvalConfig(), self.PROBLEM)
        assert_table(tmp_path / "o" / "dc_audit.csv", rows)

    def test_rates_holds_the_study_entries(self, tmp_path):
        cfg = write_config(tmp_path, "cfg", trials=2, n_deltas=3, mu=1.0,
                           filter="tsvd", c=0.5)
        assert main(["rates", "--seed", "3", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 0
        _, svd = make_rate_operator(seed=3)
        report = convergence_study(svd, "tsvd", SourceCondition(1.0, 1.0),
                                   np.geomspace(1e-1, 1e-5, 3), 2, 3, 0.5)
        assert_table(tmp_path / "o" / "rates.csv", report.entries)
