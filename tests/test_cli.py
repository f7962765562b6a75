"""Command-line interface smoke tests on tiny configurations."""

import json
import os
import struct

import numpy as np
import pytest

from nsrecon import nn
from nsrecon.cli import main, parse_config_file
from nsrecon.experiments import Problem


def write_config(tmp_path, name, **kwargs):
    path = tmp_path / name
    lines = [f"{k} = {v}" for k, v in kwargs.items()]
    path.write_text("# test configuration\n" + "\n".join(lines) + "\n")
    return str(path)


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
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "gen-data" and summary["n"] == 2

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

    def test_failure_keeps_an_existing_directory(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        cfg = write_config(tmp_path, "cfg", sigma="nan")
        assert main(["gen-data", "--out", str(out), "--config", cfg]) == 1
        assert out.is_dir()


class TestTrainEval:
    def test_train_eval_audit_pipeline(self, tmp_path):
        common = dict(epochs=3, image_size=32, n_per_kind=2, n_dump=1)
        ckpts = {}
        for kind in ("resnet", "dcnet"):
            out = tmp_path / f"train-{kind}"
            cfg = write_config(tmp_path, f"cfg-{kind}",
                               model_kind=kind, **common)
            assert main(["train", "--seed", "0", "--out", str(out),
                         "--config", cfg]) == 0
            ckpts[kind] = out / f"{kind}.ckpt"
            loss_rows = (out / "loss.csv").read_text().strip().splitlines()
            assert len(loss_rows) == 4  # header + one row per epoch
            arch, _ = nn.load_params(ckpts[kind])
            assert arch == nn.Architecture()
            summary = json.loads((out / "summary.json").read_text())
            assert summary["problem"] == {"image_size": 32,
                                          "alpha_tik": 0.01}
            assert summary["wall_s"] > 0

        out = tmp_path / "eval"
        cfg = write_config(tmp_path, "cfg-eval",
                           resnet_ckpt=ckpts["resnet"],
                           dcnet_ckpt=ckpts["dcnet"], **common)
        assert main(["eval", "--seed", "0", "--out", str(out),
                     "--config", cfg]) == 0
        assert (out / "eval.csv").exists()
        assert (out / "sample0_truth.pgm").exists()
        assert (out / "sample0_dcnet.pgm").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "tikhonov" in summary["means"]
        assert "ID" in summary["means"]["tikhonov"]
        assert summary["wall_s"] > 0

        out = tmp_path / "audit"
        cfg = write_config(tmp_path, "cfg-audit", ckpt=ckpts["dcnet"],
                           model_kind="dcnet", n=4, image_size=32)
        assert main(["dc-audit", "--seed", "0", "--out", str(out),
                     "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_relative_residual_gap"] <= 1e-10
        assert summary["wall_s"] > 0

    @pytest.fixture
    def ckpts(self, tmp_path):
        arch = nn.Architecture()
        paths = {}
        for kind in ("resnet", "dcnet"):
            paths[kind] = tmp_path / f"{kind}.ckpt"
            nn.save_params(paths[kind], arch, nn.init_params(arch, 0))
        return paths

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


class TestDcAuditErrors:
    def ckpt(self, tmp_path):
        arch = nn.Architecture()
        path = tmp_path / "net.ckpt"
        nn.save_params(path, arch, nn.init_params(arch, 0))
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
        summary = json.loads((out / "summary.json").read_text())
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
        summary = json.loads((out / "summary.json").read_text())
        assert np.isfinite(summary["error_slope"])
        assert np.isnan(summary["error_slope_halfwidth"])
        assert np.isnan(summary["residual_slope_halfwidth"])

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

    def test_bad_filter_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg", filter="ridge")
        assert main(["rates", "--out", str(tmp_path / "o"),
                     "--config", cfg]) == 1
        assert "error" in capsys.readouterr().err


def test_out_directory_created(tmp_path):
    nested = tmp_path / "a" / "b" / "c"
    cfg = write_config(tmp_path, "cfg", n=1, image_size=32, patch_size=10)
    assert main(["gen-data", "--out", str(nested), "--config", cfg]) == 0
    assert os.path.isdir(nested)


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
