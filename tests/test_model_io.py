import json

import numpy as np
import pytest

from ilrgp.classifiers import (
    GpdClassifierConfig,
    IlrClassifierConfig,
    fit_classifier,
    predict_proba,
)
from ilrgp.data import NormStats, SplitSpec, gen_circle_mixture
from ilrgp.model_io import (
    ModelArtifact,
    array_to_spec,
    config_from_payload,
    config_to_payload,
    load_model,
    save_model,
    spec_to_array,
)
from ilrgp.optimize import OptConfig
from ilrgp.simplex import SmoothingConfig


class TestArraySpec:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for shape in ((3,), (4, 2), (2, 3)):
            a = rng.standard_normal(shape)
            b = spec_to_array(array_to_spec(a))
            np.testing.assert_array_equal(a, b)
            assert b.dtype == np.float64

    def test_spec_is_self_describing(self):
        spec = array_to_spec(np.zeros((2, 5)))
        assert spec["shape"] == [2, 5]
        assert spec["dtype"] == "float64"


class TestConfigPayload:
    def test_ilr_round_trip(self):
        cfg = IlrClassifierConfig(
            SmoothingConfig(0.99, 4, 1e-5), noise_sigma=0.3, mc_samples=77,
            prediction_mode="noisy-z", backend="collapsed", num_inducing=9, backend_seed=3,
        )
        assert config_from_payload(config_to_payload(cfg)) == cfg

    def test_gpd_round_trip(self):
        cfg = GpdClassifierConfig(0.001, 5, mc_samples=10)
        assert config_from_payload(config_to_payload(cfg)) == cfg


@pytest.mark.parametrize("kind", ["ilr", "gpd", "collapsed"])
def test_save_load_predicts_identically(kind, tmp_path):
    ds = gen_circle_mixture(3, 90, 0.15, seed=1)
    if kind == "ilr":
        cfg = IlrClassifierConfig(SmoothingConfig(0.9, 3), mc_samples=40)
    elif kind == "gpd":
        cfg = GpdClassifierConfig(0.01, 3, mc_samples=40)
    else:
        cfg = IlrClassifierConfig(
            SmoothingConfig(0.9, 3), mc_samples=40, backend="collapsed",
            num_inducing=15, backend_seed=0,
        )
    model = fit_classifier(ds.X, ds.labels, cfg, OptConfig(max_iters=25))
    artifact = ModelArtifact(
        classifier_config=cfg,
        model=model,
        norm_stats=NormStats("zscore", ds.X.mean(axis=0), ds.X.std(axis=0)),
        seed=7,
        split=SplitSpec(0.6, 0.2, 0.2, seed=7),
        label_column="label",
        data_fingerprint={"n": ds.n, "num_classes": 3},
        effective_config={"model": kind},
    )
    path = tmp_path / "model.json"
    save_model(path, artifact)
    loaded = load_model(path)
    assert loaded.classifier_config == cfg
    assert loaded.seed == 7
    assert loaded.split == artifact.split
    xs = np.random.default_rng(2).random((6, 2))
    before = predict_proba(model, xs, cfg, seed=7)
    after = predict_proba(loaded.model, xs, loaded.classifier_config, seed=7)
    np.testing.assert_array_equal(before.probs, after.probs)


def test_save_is_deterministic(tmp_path):
    ds = gen_circle_mixture(2, 40, 0.1, seed=0)
    cfg = IlrClassifierConfig(SmoothingConfig(0.9, 2), mc_samples=10)
    model = fit_classifier(ds.X, ds.labels, cfg, OptConfig(max_iters=10))
    artifact = ModelArtifact(cfg, model, None, 0, None, "label", {}, {})
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(p1, artifact)
    save_model(p2, artifact)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_bytes_match_text_mode_json_dump(tmp_path):
    ds = gen_circle_mixture(3, 40, 0.1, seed=0)
    cfg = GpdClassifierConfig(0.01, 3, mc_samples=10)
    model = fit_classifier(ds.X, ds.labels, cfg, OptConfig(max_iters=10))
    artifact = ModelArtifact(cfg, model, None, 0, None, "label", {"n": 40}, {"model": "gpd"})
    path = tmp_path / "model.json"
    path.write_text(" " * 200_000)  # a longer file to overwrite
    save_model(path, artifact)
    # JSON floats round-trip exactly, so dumping the loaded payload the way
    # files were written before, through a text-mode file, gives the bytes.
    ref = tmp_path / "ref.json"
    with open(ref, "w", encoding="utf-8") as fh:
        json.dump(json.loads(path.read_text()), fh, sort_keys=True, indent=2)
        fh.write("\n")
    assert path.read_bytes() == ref.read_bytes()


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other/9"}')
    with pytest.raises(ValueError):
        load_model(path)
