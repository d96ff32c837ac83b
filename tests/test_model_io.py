import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilrgp.classifiers import (
    GpdClassifierConfig,
    IlrClassifierConfig,
    fit_classifier,
    predict_proba,
)
from ilrgp.cli import main
from ilrgp.data import NormStats, SplitSpec, apply_normalizer, gen_circle_mixture, load_table
from ilrgp.model_io import (
    ModelArtifact,
    array_to_spec,
    load_model,
    save_model,
    spec_to_array,
)
from ilrgp.optimize import OptConfig
from ilrgp.simplex import SmoothingConfig

DATA = Path(__file__).resolve().parent / "data"


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


@pytest.fixture(scope="module")
def fitted_by_kind():
    """Exact and collapsed models of both classifiers, fitted once."""
    ds = gen_circle_mixture(3, 40, 0.2, seed=3)
    cfgs = {
        "ilr": IlrClassifierConfig(SmoothingConfig(0.9, 3)),
        "gpd": GpdClassifierConfig(0.01, 3),
        "ilr-collapsed": IlrClassifierConfig(SmoothingConfig(0.9, 3), backend="collapsed", num_inducing=8),
        "gpd-collapsed": GpdClassifierConfig(0.01, 3, backend="collapsed", num_inducing=8),
    }
    return {kind: (cfg, fit_classifier(ds.X, ds.labels, cfg, OptConfig(max_iters=5)))
            for kind, cfg in cfgs.items()}


@pytest.mark.parametrize("kind", ["ilr", "gpd", "ilr-collapsed", "gpd-collapsed"])
@settings(max_examples=10, deadline=None)
@given(
    mc_samples=st.integers(1, 5000),
    mode=st.sampled_from(["latent-f", "noisy-z"]),
    seed=st.integers(0, 2**32 - 1),
    with_split=st.booleans(),
    center=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2) | st.none(),
)
def test_save_load_save_is_byte_identical(fitted_by_kind, tmp_path_factory, kind, mc_samples, mode, seed,
                                          with_split, center):
    cfg, model = fitted_by_kind[kind]
    artifact = ModelArtifact(
        classifier_config=replace(cfg, mc_samples=mc_samples, prediction_mode=mode),
        model=model,
        norm_stats=None if center is None else NormStats("zscore", np.array(center), np.array([0.5, 3.0])),
        seed=seed,
        split=SplitSpec(0.6, 0.2, 0.2, seed=seed) if with_split else None,
        label_column="label",
        data_fingerprint={"n": 40, "num_classes": 3},
        effective_config={"model": kind},
    )
    folder = tmp_path_factory.mktemp("round")
    first, second = folder / "a.json", folder / "b.json"
    save_model(first, artifact)
    loaded = load_model(first)
    assert loaded.classifier_config == artifact.classifier_config
    save_model(second, loaded)
    assert first.read_bytes() == second.read_bytes()


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


# Model files in tests/data were written by an earlier release of the
# ilrgp-model/1 writer and are checked in, so a change to the writer or the
# loader that breaks existing files fails here:
#   ilrgp fit --data circle60.csv --out model1-exact-ilr.json --set max_iters=10 --set mc_samples=50
#   ilrgp fit --data circle60.csv --out model1-collapsed-gpd.json --set model=gpd --set backend=collapsed \
#             --set num_inducing=8 --set max_iters=10 --set mc_samples=50
# circle60.csv is gen_circle_mixture(3, 60, 0.15, seed=0). Each <model>.predict.csv
# is the checked-in output of
#   ilrgp predict --model <model>.json --data circle60.csv --split all --out <model>.predict.csv
# and pins the bits of predict_proba's block-keyed streams (block b draws from
# default_rng([seed, b])) and of its link: a change that moves any bit fails here.
@pytest.mark.parametrize("name, backend", [("model1-exact-ilr.json", "exact"),
                                           ("model1-collapsed-gpd.json", "collapsed")])
def test_checked_in_format_1_file_loads_and_saves_unchanged(name, backend, tmp_path):
    path = DATA / name
    artifact = load_model(path)
    cfg = artifact.classifier_config
    assert cfg.backend == backend
    again = tmp_path / name
    save_model(again, artifact)
    assert again.read_bytes() == path.read_bytes()
    ds = apply_normalizer(load_table(DATA / "circle60.csv", artifact.label_column), artifact.norm_stats)
    pred = predict_proba(artifact.model, ds.X, cfg, artifact.seed)
    assert pred.probs.shape == (ds.n, cfg.num_classes)
    assert np.all(np.isfinite(pred.probs))
    np.testing.assert_allclose(pred.probs.sum(axis=1), 1.0)


@pytest.mark.parametrize("name", ["model1-exact-ilr", "model1-collapsed-gpd"])
def test_checked_in_predictions_are_reproduced_byte_for_byte(name, tmp_path):
    out = tmp_path / "predict.csv"
    assert main(["predict", "--model", str(DATA / f"{name}.json"), "--data", str(DATA / "circle60.csv"),
                 "--split", "all", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.predict.csv").read_bytes()
