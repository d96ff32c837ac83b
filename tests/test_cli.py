import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ilrgp import cli
from ilrgp.classifiers import predict_proba
from ilrgp.cli import main
from ilrgp.data import gen_circle_mixture, save_table
from ilrgp.model_io import array_to_spec, load_model, spec_to_array
from ilrgp.simplex import SmoothingConfig, sigma_bound


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    save_table(gen_circle_mixture(3, 120, 0.15, seed=0), path)
    return path


FAST = [
    "--set", "max_iters=25",
    "--set", "mc_samples=50",
    "--set", "split_train=0.6",
    "--set", "split_val=0.2",
    "--set", "split_test=0.2",
]


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def fitted_model_text(data_csv, tmp_path_factory):
    """The text of a z-scored three-class ILR model file fitted on ``data_csv``."""
    model = tmp_path_factory.mktemp("model") / "model.json"
    assert run_cli("fit", "--data", str(data_csv), "--out", str(model), *FAST) == 0
    return model.read_text()


@pytest.fixture(scope="module")
def fitted_collapsed_model_text(data_csv, tmp_path_factory):
    """The text of a collapsed ILR model file (8 inducing points) fitted on ``data_csv``."""
    model = tmp_path_factory.mktemp("model") / "model.json"
    assert run_cli("fit", "--data", str(data_csv), "--out", str(model), *FAST,
                   "--set", "backend=collapsed", "--set", "num_inducing=8") == 0
    return model.read_text()


def _edit_x_train(payload, change):
    arrays = payload["arrays"]
    arrays["X_train"] = array_to_spec(change(spec_to_array(arrays["X_train"])))


# Hand edits of a model file's 72 x 2 training inputs and the message each exits 2 with.
X_TRAIN_EDITS = [
    (lambda p: _edit_x_train(p, lambda X: np.hstack([X, X[:, :1]])),
     "expected inputs of shape (n, 2), got (72, 3)"),
    (lambda p: _edit_x_train(p, lambda X: np.vstack([X, X[:1]])), "X has 73 rows but Z has 72"),
    (lambda p: _edit_x_train(p, np.ravel), "expected inputs of shape (n, 2), got (1, 144)"),
]
X_TRAIN_EDIT_IDS = ["x-train-extra-column", "x-train-extra-row", "x-train-one-dimension"]


class TestFit:
    def test_fit_writes_model(self, data_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = run_cli("fit", "--data", str(data_csv), "--out", str(out), *FAST)
        assert code == 0
        assert out.exists()
        status = json.loads(capsys.readouterr().out)
        assert status["config"]["model"] == "ilr"

    def test_refit_is_byte_identical(self, data_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("fit", "--data", str(data_csv), "--out", str(a), *FAST) == 0
        assert run_cli("fit", "--data", str(data_csv), "--out", str(b), *FAST) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_data_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code = run_cli("fit", "--data", str(tmp_path / "nope.csv"), "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert "not found" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, data_csv, tmp_path, capsys):
        code = run_cli(
            "fit", "--data", str(data_csv), "--out", str(tmp_path / "m.json"),
            "--set", "lenght=2",
        )
        assert code == 2

    def test_invalid_model_value_exits_2(self, data_csv, tmp_path):
        code = run_cli(
            "fit", "--data", str(data_csv), "--out", str(tmp_path / "m.json"),
            "--set", "model=svm",
        )
        assert code == 2

    def test_fit_creates_missing_output_directories(self, data_csv, tmp_path, capsys):
        nested, flat = tmp_path / "a" / "b" / "m.json", tmp_path / "m.json"
        assert run_cli("fit", "--data", str(data_csv), "--out", str(nested), *FAST) == 0
        assert run_cli("fit", "--data", str(data_csv), "--out", str(flat), *FAST) == 0
        assert nested.read_bytes() == flat.read_bytes()

    def test_config_file_and_overrides(self, data_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "gpd", "alpha_eps": 0.1, "max_iters": 20}))
        out = tmp_path / "gpd.json"
        code = run_cli(
            "fit", "--config", str(cfg_path), "--data", str(data_csv),
            "--out", str(out), "--set", "alpha_eps=0.01", "--set", "mc_samples=40",
        )
        assert code == 0
        art = load_model(out)
        assert art.classifier_config.kind == "gpd"
        assert art.classifier_config.alpha_eps == 0.01


class TestExitCodes:
    """Usage and input errors exit 2 with a message; they never reach a traceback."""

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_fit_to_null_device_exits_0(self, data_csv, capsys):
        assert run_cli("fit", "--data", str(data_csv), "--out", os.devnull, *FAST) == 0

    def test_failed_model_write_exits_1_and_leaves_empty_file(self, data_csv, tmp_path, capsys,
                                                              failing_writes):
        model = tmp_path / "model.json"
        model.write_text("a previous model\n" * 1000)
        assert run_cli("fit", "--data", str(data_csv), "--out", str(model), *FAST) == 1
        assert "OSError" in capsys.readouterr().err
        assert model.read_bytes() == b""
        assert run_cli("eval", "--model", str(model), "--data", str(data_csv)) == 2
        assert "not a JSON model file" in capsys.readouterr().err

    def test_truncated_model_file_exits_2(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run_cli("fit", "--data", str(data_csv), "--out", str(model), *FAST) == 0
        text = model.read_text()
        model.write_text(text[: len(text) // 2])
        capsys.readouterr()
        assert run_cli("eval", "--model", str(model), "--data", str(data_csv)) == 2
        assert "not a JSON model file" in capsys.readouterr().err

    def test_mis_shaped_model_array_exits_2(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run_cli("fit", "--data", str(data_csv), "--out", str(model), *FAST) == 0
        payload = json.loads(model.read_text())
        payload["arrays"]["Z"]["shape"][0] += 1
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("eval", "--model", str(model), "--data", str(data_csv)) == 2
        assert "malformed model file" in capsys.readouterr().err

    @pytest.mark.parametrize("block, key, value", [
        ("classifier", "mc_samples", 1.5), ("classifier", "mc_samples", True),
        ("classifier", "backend_seed", 0.5), ("classifier", "num_inducing", 2.5),
        (None, "seed", 0.5), ("classifier", "backend_seed", -1), (None, "seed", -1),
    ])
    def test_malformed_model_setting_exits_2(self, block, key, value, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run_cli("fit", "--data", str(data_csv), "--out", str(model), *FAST) == 0
        payload = json.loads(model.read_text())
        (payload[block] if block else payload)[key] = value
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("eval", "--model", str(model), "--data", str(data_csv)) == 2
        err = capsys.readouterr().err
        need = "non-negative, got -1" if value == -1 else "an integer"
        assert "malformed model file" in err and f"{key} must be {need}" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["normalization"].update(mode="bogus"), "unknown normalization mode 'bogus'"),
        (lambda p: p["normalization"]["center"].pop(), "center and scale differ in length: 1 and 2"),
        (lambda p: [p["normalization"][key].pop() for key in ("center", "scale")],
         "normalization has 1 features, input_dim is 2"),
        (lambda p: p["normalization"]["center"].__setitem__(0, float("nan")),
         "center must be a list of finite"),
        (lambda p: p["normalization"]["center"].__setitem__(0, "0.1"), "center must be a list of finite"),
        (lambda p: p["normalization"]["center"].__setitem__(0, 10**400), "OverflowError"),
        (lambda p: p["normalization"].update(scale=1.0), "scale must be a list of finite"),
        (lambda p: p["normalization"]["scale"].__setitem__(1, 0.0), "scale must be positive"),
        (lambda p: p["normalization"]["scale"].__setitem__(0, -2.0), "scale must be positive"),
        (lambda p: p["split"].update(train="0.6"), "split train, val and test must be numbers"),
        (lambda p: p["split"].update(val=True), "split train, val and test must be numbers"),
        (lambda p: p["split"].update(test=-0.2), "split train, val and test must be numbers"),
        (lambda p: p["split"].update(seed=1.5), "seed must be an integer"),
        (lambda p: p["split"].update(seed=-1), "seed must be non-negative, got -1"),
        (lambda p: p["split"].pop("seed"), "split must have the keys"),
        (lambda p: p["classifier"].update(num_classes=4), "targets have 2 latent coordinates, "
                                                          "the classifier expects 3"),
        (lambda p: p["classifier"].update(model="gpd", alpha_eps=float("nan")),
         "alpha_eps must be positive and finite, got nan"),
        (lambda p: p["classifier"].update(backend="collapsed"), "a collapsed model needs an Xu array"),
        (lambda p: p["arrays"].update(Xu=p["arrays"]["X_train"]), "an exact model has no Xu array"),
        (lambda p: (p["classifier"].update(backend="collapsed"),
                    p["arrays"].update(Xu=p["arrays"]["X_train"])),
         "Xu has shape (72, 2), expected (num_inducing, input_dim) = (64, 2)"),
        (lambda p: p["kernel"].update(period=1.0), "unexpected keyword argument 'period'"),
        (lambda p: p["kernel"].pop("input_dim"), "missing 1 required positional argument: 'input_dim'"),
        (lambda p: p.update(data_fingerprint=[1]), "data_fingerprint must be a JSON object, got [1]"),
        (lambda p: p.update(data_fingerprint="x"), "data_fingerprint must be a JSON object, got 'x'"),
        (lambda p: p["noise"].update(value=True), "noise variance must be a positive number, got True"),
        (lambda p: p["classifier"].update(mc_samples=1e308), "mc_samples must be at most"),
        (lambda p: p["arrays"]["Z"].update(dtype="int8"), "array dtype must be float64, got 'int8'"),
        (lambda p: p["arrays"]["Z"]["shape"].__setitem__(0, -1),
         "array shape must be a list of non-negative integers, got [-1, 2]"),
        (lambda p: p["kernel"].update(log_signal_variance=1000),
         "signal variance and squared lengthscale must be finite and positive, got inf and"),
        (lambda p: p["kernel"].update(log_lengthscale=-800), "must be finite and positive, got"),
        (lambda p: p["kernel"].update(log_lengthscale=800), "must be finite and positive, got"),
        *X_TRAIN_EDITS,
    ], ids=["norm-mode", "norm-short-center", "norm-short", "norm-nan", "norm-string", "norm-huge-int",
            "norm-scalar", "norm-zero-scale", "norm-negative-scale", "split-string", "split-bool",
            "split-negative", "split-seed", "split-negative-seed", "split-no-seed", "num-classes",
            "gpd-nan-alpha-eps", "collapsed-without-xu", "exact-with-xu", "xu-rows-not-num-inducing",
            "kernel-unknown-key", "kernel-no-input-dim", "fingerprint-list", "fingerprint-string",
            "noise-bool", "mc-samples-huge", "dtype-int8", "shape-inferred", "kernel-huge-signal-variance",
            "kernel-tiny-lengthscale", "kernel-huge-lengthscale", *X_TRAIN_EDIT_IDS])
    def test_hand_edited_model_block_exits_2(self, edit, message, fitted_model_text, data_csv,
                                             tmp_path, capsys):
        model = tmp_path / "model.json"
        payload = json.loads(fitted_model_text)
        edit(payload)
        model.write_text(json.dumps(payload))
        assert run_cli("eval", "--model", str(model), "--data", str(data_csv)) == 2
        err = capsys.readouterr().err
        assert "malformed model file" in err and message in err

    @pytest.mark.parametrize("edit, message", X_TRAIN_EDITS, ids=X_TRAIN_EDIT_IDS)
    def test_mis_shaped_training_inputs_on_the_collapsed_backend_exit_2(
            self, edit, message, fitted_collapsed_model_text, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        payload = json.loads(fitted_collapsed_model_text)
        edit(payload)
        model.write_text(json.dumps(payload))
        assert run_cli("eval", "--model", str(model), "--data", str(data_csv)) == 2
        err = capsys.readouterr().err
        assert "malformed model file" in err and message in err

    @pytest.mark.parametrize("command, flag", [("fit", "--data"), ("fit", "--config"), ("eval", "--model"),
                                               ("predict", "--out")])
    def test_directory_as_file_path_exits_2(self, command, flag, fitted_model_text, data_csv, tmp_path,
                                            capsys):
        model = tmp_path / "model.json"
        model.write_text(fitted_model_text)
        paths = {
            "fit": {"--data": data_csv, "--out": tmp_path / "out.json"},
            "eval": {"--model": model, "--data": data_csv},
            "predict": {"--model": model, "--data": data_csv, "--out": tmp_path / "out.csv"},
        }[command]
        paths[flag] = tmp_path / "folder"
        paths[flag].mkdir()
        assert run_cli(command, *(str(arg) for item in paths.items() for arg in item)) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command, flag", [("fit", "--out"), ("eval", "--out"), ("predict", "--out"),
                                               ("sweep", "--out-dir"), ("experiment", "--out-dir")])
    def test_output_path_through_a_regular_file_exits_2(self, command, flag, fitted_model_text, data_csv,
                                                         tmp_path, capsys, monkeypatch):
        def no_fit(*args):
            raise AssertionError("fitted before checking the output path")

        monkeypatch.setattr(cli, "_fit", no_fit)
        model = tmp_path / "model.json"
        model.write_text(fitted_model_text)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        argv = {
            "fit": ["--data", data_csv, *FAST],
            "eval": ["--model", model, "--data", data_csv],
            "predict": ["--model", model, "--data", data_csv],
            "sweep": ["--data", data_csv, *FAST, "--set", "lambda_grid=[0.9]"],
            "experiment": ["sigma-bound-table", "--set", "k_values=[2]", "--set", "lambda_grid=[0.9]"],
        }[command]
        for out in (blocker, blocker / "sub"):
            assert run_cli(command, *map(str, argv), flag, str(out / "out.json")) == 2
            captured = capsys.readouterr()
            assert str(blocker) in captured.err
            assert captured.out == ""
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command, target", [("fit", "--out"), ("eval", "--out"), ("predict", "--out"),
                                                 ("predict", ".meta.json")])
    def test_output_file_that_is_a_directory_exits_2_before_any_work(self, command, target, fitted_model_text,
                                                                     data_csv, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("worked before checking the output path")

        monkeypatch.setattr(cli, "_fit", no_work)
        monkeypatch.setattr(cli, "predict_proba", no_work)
        model = tmp_path / "model.json"
        model.write_text(fitted_model_text)
        out = tmp_path / "out"
        (out if target == "--out" else tmp_path / "out.meta.json").mkdir()
        argv = {
            "fit": ["--data", data_csv, *FAST],
            "eval": ["--model", model, "--data", data_csv],
            "predict": ["--model", model, "--data", data_csv],
        }[command]
        assert run_cli(command, *map(str, argv), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Is a directory" in captured.err

    def test_two_class_fit_with_a_tolerance_that_bounds_nothing_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_fit(*args):
            raise AssertionError("fitted with a tolerance that bounds nothing")

        monkeypatch.setattr(cli, "_fit", no_fit)
        data = tmp_path / "two.csv"
        save_table(gen_circle_mixture(2, 30, 0.15, seed=0), data)
        out = tmp_path / "m.json"
        assert run_cli("fit", "--data", str(data), "--out", str(out), *FAST, "--set", "epsilon=0.7") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "epsilon must be in (0, 0.5) for K = 2" in captured.err
        assert not out.exists()

    def test_config_file_that_is_not_utf8_exits_2(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"model": "\xff"}')
        out = tmp_path / "m.json"
        assert run_cli("fit", "--config", str(cfg), "--data", str(data_csv), "--out", str(out)) == 2
        assert f"{cfg}: not a JSON config file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("parts", [(0.9, 0.2, 0.2), (50, 10, 10)])
    def test_split_that_does_not_fit_the_data_exits_2(self, parts, fitted_model_text, data_csv,
                                                       tmp_path, capsys):
        model = tmp_path / "model.json"
        payload = json.loads(fitted_model_text)
        payload["split"].update(zip(("train", "val", "test"), parts))
        model.write_text(json.dumps(payload))
        assert run_cli("eval", "--model", str(model), "--data", str(data_csv), "--split", "test") == 2
        assert "split does not apply" in capsys.readouterr().err

    @pytest.mark.parametrize("command, settings, message", [
        ("fit", ["max_iters=abc"], "max_iters must be an integer"),
        ("fit", ["max_iters=-1"], "max_iters must be non-negative"),
        ("fit", ["split_train=abc"], "split train, val and test must be numbers, finite and >= 0, got ['abc'"),
        ("fit", ["split_train=1.12", "split_test=-0.2"], "must be numbers, finite and >= 0, got [1.12, 0.08, -0.2]"),
        ("fit", ["model=gpd", "alpha_eps=NaN"], "alpha_eps must be positive and finite, got nan"),
        ("fit", ["model=gpd", "alpha_eps=Infinity"], "alpha_eps must be positive and finite, got inf"),
        ("fit", ["normalization=bogus"], "normalization must be zscore, minmax11 or none, got 'bogus'"),
        ("fit", ["seed=-1"], "seed must be non-negative, got -1"),
        ("fit", ["backend=collapsed", "backend_seed=-1"], "backend_seed must be non-negative, got -1"),
        ("fit", ["mc_samples=1e308"], "mc_samples must be at most 3074457345618258602 for 3 classes"),
        ("sweep", ["lambda_grid=0.9"], "lambda_grid must be a non-empty list, got 0.9"),
        ("sweep", ["lambda_grid=[]"], "lambda_grid must be a non-empty list, got []"),
        ("sweep", ["model=gpd", "alpha_eps_grid=[]"], "alpha_eps_grid must be a non-empty list, got []"),
    ], ids=["max-iters-string", "max-iters-negative", "split-string", "split-negative", "alpha-eps-nan",
            "alpha-eps-inf", "normalization", "seed-negative", "backend-seed-negative", "mc-samples-huge",
            "sweep-scalar-grid",
            "sweep-empty-grid", "sweep-empty-gpd-grid"])
    def test_bad_setting_exits_2(self, command, settings, message, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        sets = [arg for item in settings for arg in ("--set", item)]
        code = run_cli(command, "--data", str(data_csv), "--out" if command == "fit" else "--out-dir", str(out),
                       *sets)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_learning_rate_is_no_longer_a_setting(self, data_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = run_cli("fit", "--data", str(data_csv), "--out", str(out), "--set", "learning_rate=0.01")
        assert code == 2
        assert "unknown config key 'learning_rate'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("mc_samples", "abc"), ("num_inducing", "xyz"), ("seed", "abc"),
        ("seed", "1.5"), ("backend_seed", "1.5"), ("mc_samples", "2.7"),
        ("alpha_eps", "true"), ("lambda", '"0.9"'), ("epsilon", "[]"), ("noise_sigma", '"0.1"'),
    ])
    def test_non_integer_setting_exits_2(self, key, value, data_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        gpd = ["--set", "model=gpd"] if key == "alpha_eps" else []
        code = run_cli("fit", "--data", str(data_csv), "--out", str(out), *gpd, "--set", f"{key}={value}")
        assert code == 2
        kind = "a number" if key in ("alpha_eps", "lambda", "epsilon", "noise_sigma") else "an integer"
        assert f"{key} must be {kind}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("x1,x2,label\n1.0,2.0,1\n1.5,oops,2\n", "non-numeric value 'oops' at row 3"),
        ("x1,x2,label\n1.0,2.0,1\n1.0,2\n", "row 3 has 2 cells, expected 3"),
        ("x1,x2,y\n1.0,2.0,1\n", "no column named 'label'"),
        ("", "empty file"),
        ("x1,x2,label\n", "no data rows"),
        ("x1,x2,label\n1.0,2.0,1\n1.0,nan,2\n", "non-finite value 'nan' at row 3, column 'x2'"),
        ("x1,label,label\n1.0,1,1\n2.0,2,2\n", "column 'label' occurs 2 times in header"),
        ("label\n1\n2\n", "no feature column besides 'label'"),
    ], ids=["non-numeric", "cell-count", "no-label-column", "empty", "no-rows", "non-finite",
            "label-column-twice", "no-feature-column"])
    def test_malformed_csv_exits_2(self, text, message, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        code = run_cli("fit", "--data", str(data), "--out", str(tmp_path / "m.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert str(data) in err and message in err

    def test_more_inducing_points_than_rows_exits_2(self, data_csv, tmp_path, capsys):
        # 60% of the 120 rows train.
        code = run_cli("fit", "--data", str(data_csv), "--out", str(tmp_path / "m.json"), *FAST,
                       "--set", "backend=collapsed", "--set", "num_inducing=73")
        assert code == 2
        assert "num_inducing=73 exceeds the 72 training rows" in capsys.readouterr().err


class TestFitWarning:
    def test_unconverged_fit_warns_once_on_stderr(self, data_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run_cli("fit", "--data", str(data_csv), "--out", str(out), *FAST,
                       "--set", "max_iters=3") == 0
        captured = capsys.readouterr()
        status = json.loads(captured.out)
        assert status["fit"]["converged"] is False
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "did not converge" in lines[0]
        for key in ("stop=max_iters", "iterations=3", "evaluations=", "final_grad_max=", "grad_tol=1e-05"):
            assert key in lines[0]

    def test_fit_summary_reports_the_run(self, data_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run_cli("fit", "--data", str(data_csv), "--out", str(out), *FAST) == 0
        captured = capsys.readouterr()
        fit = json.loads(captured.out)["fit"]
        assert fit["stop"] in ("grad_tol", "round_off", "max_iters", "line_search")
        assert fit["converged"] == (fit["stop"] in ("grad_tol", "round_off"))
        assert fit["evaluations"] > fit["iterations"] > 0
        assert fit["noise_scale"] >= 1.0
        assert json.loads(out.read_text())["fit_info"] == fit


class TestEmptySplits:
    NO_VAL = [*FAST[:6], "--set", "split_val=0", "--set", "split_test=0.4"]
    NO_TEST = [*FAST[:6], "--set", "split_val=0.4", "--set", "split_test=0"]

    def test_fit_without_validation_or_test_rows(self, data_csv, tmp_path, capsys):
        for name, sets in (("a.json", self.NO_VAL), ("b.json", self.NO_TEST)):
            assert run_cli("fit", "--data", str(data_csv), "--out", str(tmp_path / name), *sets) == 0
            assert json.loads(capsys.readouterr().out)["fit"]["iterations"] > 0

    def test_eval_and_predict_on_empty_split_exit_2(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run_cli("fit", "--data", str(data_csv), "--out", str(model), *self.NO_TEST) == 0
        capsys.readouterr()
        assert run_cli("eval", "--model", str(model), "--data", str(data_csv), "--split", "test") == 2
        assert "test split" in capsys.readouterr().err
        preds = tmp_path / "preds.csv"
        code = run_cli("predict", "--model", str(model), "--data", str(data_csv),
                       "--split", "test", "--out", str(preds))
        assert code == 2
        assert "test split" in capsys.readouterr().err
        assert not preds.exists()
        assert run_cli("eval", "--model", str(model), "--data", str(data_csv), "--split", "val") == 0


class TestModelRoundTrip:
    def test_loaded_model_predicts_identically(self, data_csv, tmp_path):
        out = tmp_path / "model.json"
        run_cli("fit", "--data", str(data_csv), "--out", str(out), *FAST)
        art1 = load_model(out)
        art2 = load_model(out)
        xs = np.random.default_rng(0).random((8, 2))
        p1 = predict_proba(art1.model, xs, art1.classifier_config, seed=art1.seed)
        p2 = predict_proba(art2.model, xs, art2.classifier_config, seed=art2.seed)
        np.testing.assert_array_equal(p1.probs, p2.probs)

    def test_collapsed_backend_round_trip(self, data_csv, tmp_path):
        out = tmp_path / "sparse.json"
        code = run_cli(
            "fit", "--data", str(data_csv), "--out", str(out), *FAST,
            "--set", "backend=collapsed", "--set", "num_inducing=16",
        )
        assert code == 0
        art = load_model(out)
        assert art.model.Xu.shape[0] == 16


class TestEvalPredict:
    def test_eval_report_schema(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        run_cli("fit", "--data", str(data_csv), "--out", str(model), *FAST)
        capsys.readouterr()
        code = run_cli("eval", "--model", str(model), "--data", str(data_csv))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"error", "nll", "ece", "bins", "config"}
        assert len(report["bins"]) == 10
        assert report["error"] == 0.0  # separable toy
        total = sum(b["count"] for b in report["bins"])
        assert total == 24  # test fraction of 120

    def test_eval_deterministic(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        run_cli("fit", "--data", str(data_csv), "--out", str(model), *FAST)
        capsys.readouterr()
        run_cli("eval", "--model", str(model), "--data", str(data_csv))
        first = capsys.readouterr().out
        run_cli("eval", "--model", str(model), "--data", str(data_csv))
        second = capsys.readouterr().out
        assert first == second

    def test_eval_rejects_mismatched_data(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        run_cli("fit", "--data", str(data_csv), "--out", str(model), *FAST)
        other = tmp_path / "other.csv"
        save_table(gen_circle_mixture(3, 60, 0.15, seed=3), other)
        code = run_cli("eval", "--model", str(model), "--data", str(other))
        assert code == 2

    def test_predict_writes_probability_csv(self, data_csv, tmp_path):
        model = tmp_path / "model.json"
        run_cli("fit", "--data", str(data_csv), "--out", str(model), *FAST)
        preds = tmp_path / "preds.csv"
        code = run_cli("predict", "--model", str(model), "--data", str(data_csv), "--out", str(preds))
        assert code == 0
        lines = preds.read_text().strip().splitlines()
        assert lines[0] == "prob_1,prob_2,prob_3,label_hat"
        assert len(lines) == 121
        assert (tmp_path / "preds.csv.meta.json").exists()


class TestSweep:
    def test_sweep_outputs(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--data", str(data_csv), "--out-dir", str(out_dir), *FAST,
            "--set", "lambda_grid=[0.9,0.99]",
        )
        assert code == 0
        grid = (out_dir / "grid.csv").read_text().strip().splitlines()
        assert grid[0] == "setting,val_nll,val_error,val_ece"
        assert len(grid) == 3
        selection = json.loads((out_dir / "selection.json").read_text())
        assert selection["parameter"] == "lambda"
        assert selection["selected"] in (0.9, 0.99)


class TestExperimentCommand:
    def test_sigma_bound_table_layout_and_determinism(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            code = run_cli(
                "experiment", "sigma-bound-table", "--out-dir", str(d),
                "--set", "k_values=[2,3]", "--set", "lambda_grid=[0.9,0.99]",
            )
            assert code == 0
        assert (d1 / "runs" / "sigma-bound-table" / "0" / "results.csv").exists()
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    def test_gpd_recovery_experiment(self, tmp_path):
        out = tmp_path / "rec"
        code = run_cli(
            "experiment", "gpd-recovery", "--out-dir", str(out),
            "--set", "k_values=[2,8]", "--set", "alpha_eps_grid=[0.1]",
            "--set", "num_samples=2000",
        )
        assert code == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert rows[0] == "K,alpha_eps,num_samples,error"
        assert len(rows) == 3

    def test_breakdown_experiment_determinism(self, tmp_path):
        d1, d2 = tmp_path / "b1", tmp_path / "b2"
        args = [
            "--set", "n_train=60", "--set", "n_test=60",
            "--set", "num_repeats=1", "--set", "max_iters=10",
        ]
        for d in (d1, d2):
            assert run_cli("experiment", "breakdown", "--out-dir", str(d), *args) == 0
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()
        assert (d1 / "runs" / "breakdown" / "0" / "results.csv").exists()

    @pytest.mark.parametrize("setting, message", [
        ("n_trian=5", "unknown parameter 'n_trian'"),
        ("seed=1.5", "seed must be an integer, got 1.5"),
        ("mix_sd=wide", "mix_sd must be a number, got 'wide'"),
    ])
    def test_bad_parameter_exits_2(self, setting, message, tmp_path, capsys):
        out = tmp_path / "b"
        code = run_cli("experiment", "breakdown", "--out-dir", str(out), "--set", setting)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, setting", [
        ("breakdown", "num_repeats=0"), ("breakdown", "n_train=1"), ("breakdown", "n_test=0"),
        ("overlap-lambda", "num_seeds=0"), ("overlap-lambda", "n=4"), ("overlap-lambda", "mc_samples=0"),
        ("scaling-k", "n_test=0"), ("gpd-recovery", "num_samples=0"),
    ])
    def test_count_below_its_minimum_exits_2(self, name, setting, tmp_path, capsys):
        out = tmp_path / "b"
        code = run_cli("experiment", name, "--out-dir", str(out), "--set", setting)
        assert code == 2
        key = setting.split("=")[0]
        assert f"{key} must be at least" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_unknown_experiment_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "warp-drive", "--out-dir", str(tmp_path / "x"))
        assert exc.value.code == 2


class TestSigmaBoundCommand:
    def test_value_matches_library(self, capsys):
        code = run_cli("sigma-bound", "--lambda", "0.9", "--classes", "3")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma"] == pytest.approx(sigma_bound(SmoothingConfig(0.9, 3)), abs=1e-15)

    def test_invalid_lambda_exits_2(self, capsys):
        assert run_cli("sigma-bound", "--lambda", "1.5", "--classes", "3") == 2

    @pytest.mark.parametrize("epsilon", ["0.5", "0.7"])
    def test_two_class_tolerance_that_bounds_nothing_exits_2(self, epsilon, capsys):
        assert run_cli("sigma-bound", "--lambda", "0.9", "--classes", "2", "--epsilon", epsilon) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "epsilon must be in (0, 0.5) for K = 2" in captured.err


class TestConsoleEntryPoint:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ilrgp.cli", "sigma-bound", "--lambda", "0.95", "--classes", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["K"] == 4


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env_without_blas_vars(**extra):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    return {**env, **extra}


class TestBlasPin:
    def test_unset_variables_give_the_one_thread_bytes(self, tmp_path):
        # On a host with two or more cores, 1 and 2 BLAS threads write different
        # model files for this 200-row fit.
        data = tmp_path / "c200.csv"
        save_table(gen_circle_mixture(3, 200, 0.5, [101, 0]), data)
        files = {}
        for name, extra in [("unset", {}), ("one", dict.fromkeys(_BLAS_VARS, "1"))]:
            files[name] = tmp_path / f"{name}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "ilrgp.cli", "fit", "--data", str(data), "--out", str(files[name])],
                env=_env_without_blas_vars(**extra), capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        assert files["unset"].read_bytes() == files["one"].read_bytes()

    @pytest.mark.parametrize("extra, expected", [
        ({}, ["1", "1", "1"]),
        ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
    ])
    def test_cli_import_sets_only_unset_variables(self, extra, expected):
        script = f"import os, ilrgp.cli; print([os.environ[v] for v in {_BLAS_VARS!r}])"
        proc = subprocess.run([sys.executable, "-c", script], env=_env_without_blas_vars(**extra),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(expected)

    def test_package_import_loads_no_numpy_and_sets_nothing(self):
        # A library import must leave its caller's BLAS threads alone; the
        # public names still resolve, on first use.
        script = "\n".join([
            "import os, sys, ilrgp",
            "assert 'numpy' not in sys.modules, 'numpy loaded'",
            f"assert not any(v in os.environ for v in {_BLAS_VARS!r}), 'BLAS variable set'",
            "assert ilrgp.__all__ and all(getattr(ilrgp, name) is not None for name in ilrgp.__all__)",
        ])
        proc = subprocess.run([sys.executable, "-c", script], env=_env_without_blas_vars(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestNumpyOnlyRuntime:
    # scipy is a test oracle only; its import alone cost about 0.28 s per CLI start
    @pytest.mark.parametrize("backend", ["exact", "collapsed"])
    def test_cli_commands_load_no_scipy(self, data_csv, tmp_path, backend):
        model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
        script = "\n".join([
            "import sys",
            "from ilrgp.cli import main",
            f"assert main(['fit', '--data', {str(data_csv)!r}, '--out', {str(model)!r},"
            f" '--set', 'backend={backend}', '--set', 'num_inducing=8', *{FAST!r}]) == 0",
            f"assert main(['eval', '--model', {str(model)!r}, '--data', {str(data_csv)!r}]) == 0",
            f"assert main(['predict', '--model', {str(model)!r}, '--data', {str(data_csv)!r},"
            f" '--out', {str(preds)!r}]) == 0",
            "assert main(['sigma-bound', '--lambda', '0.9', '--classes', '3']) == 0",
            "print('SCIPY', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "SCIPY []"


class TestFitTiming:
    def test_default_fit_under_a_minute(self, tmp_path):
        import time

        path = tmp_path / "k4.csv"
        save_table(gen_circle_mixture(4, 400, 0.35, seed=0), path)
        t0 = time.perf_counter()
        code = run_cli("fit", "--data", str(path), "--out", str(tmp_path / "m.json"))
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 60.0
