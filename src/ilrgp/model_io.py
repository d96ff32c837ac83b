"""Self-describing JSON model container with base64 array blocks.

A saved model holds everything needed to reproduce its predictions: the
training inputs, pseudo-observation targets and noise, kernel parameters,
normalization statistics, and the classifier configuration including the
Monte-Carlo seed. Factorizations are recomputed on load from the stored
float64 arrays, which reproduces the cached solver state exactly.

Serialization is deterministic (sorted keys, no timestamps), so refitting
with an identical configuration yields a byte-identical file.
"""

import base64
import json
from dataclasses import dataclass

import numpy as np

from .classifiers import ClassifierConfig, classifier_config
from .data import ConfigError, NormStats, SplitSpec, _number, write_text
from .gp import PseudoObservations, finalize_exact
from .kernel import RbfKernel
from .sparse import finalize_collapsed

FORMAT = "ilrgp-model/1"


def array_to_spec(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "dtype": "float64",
        "b64": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"),
    }


def spec_to_array(spec: dict) -> np.ndarray:
    raw = base64.b64decode(spec["b64"])
    return np.frombuffer(raw, dtype="<f8").reshape(spec["shape"]).astype(np.float64)


@dataclass(frozen=True)
class ModelArtifact:
    """Loaded model file: backend model plus everything around it."""

    classifier_config: ClassifierConfig
    model: object
    norm_stats: NormStats | None
    seed: int
    split: SplitSpec | None
    label_column: str
    data_fingerprint: dict
    effective_config: dict


def _noise_payload(pseudo: PseudoObservations) -> dict:
    if pseudo.noise_kind == "scalar":
        return {"kind": "scalar", "value": pseudo.noise}
    return {"kind": pseudo.noise_kind, "data": array_to_spec(np.asarray(pseudo.noise))}


def _noise_from_payload(payload: dict):
    if payload["kind"] == "scalar":
        return payload["value"]
    return spec_to_array(payload["data"])


def _split_from_payload(block: dict) -> SplitSpec:
    """The saved split: fractions or counts, checked by SplitSpec, and an integer seed."""
    if set(block) != {"train", "val", "test", "seed"}:
        raise ValueError(f"split must have the keys train, val, test and seed, got {sorted(block)}")
    return SplitSpec(block["train"], block["val"], block["test"], seed=_number(block, "seed", int))


def save_model(path, artifact: ModelArtifact):
    model = artifact.model
    payload = {
        "format": FORMAT,
        "classifier": artifact.classifier_config.to_dict(),
        "kernel": {
            "log_signal_variance": model.kernel.log_signal_variance,
            "log_lengthscale": model.kernel.log_lengthscale,
            "input_dim": model.kernel.input_dim,
        },
        "arrays": {
            "X_train": array_to_spec(model.X_train),
            "Z": array_to_spec(model.pseudo.Z),
        },
        "noise": _noise_payload(model.pseudo),
        "normalization": artifact.norm_stats.to_dict() if artifact.norm_stats else None,
        "seed": artifact.seed,
        "split": (
            {
                "train": artifact.split.train,
                "val": artifact.split.val,
                "test": artifact.split.test,
                "seed": artifact.split.seed,
            }
            if artifact.split
            else None
        ),
        "label_column": artifact.label_column,
        "data_fingerprint": artifact.data_fingerprint,
        "effective_config": artifact.effective_config,
        "fit_info": model.fit_info,
    }
    if artifact.classifier_config.backend == "collapsed":
        payload["arrays"]["Xu"] = array_to_spec(model.Xu)
    write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_model(path) -> ModelArtifact:
    """Read a model file; a file that is not a well-formed model raises ConfigError.

    The classifier's ``backend`` picks the model: a collapsed file must hold
    ``Xu`` of shape ``(num_inducing, input_dim)``, an exact file no ``Xu``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"{path}: not a JSON model file ({e})") from None
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        found = payload.get("format") if isinstance(payload, dict) else None
        raise ConfigError(f"{path}: unsupported model format {found!r}")
    try:
        block = payload["classifier"]
        cfg = classifier_config(block, _number(block, "num_classes", int))
        kern = RbfKernel(
            payload["kernel"]["log_signal_variance"],
            payload["kernel"]["log_lengthscale"],
            payload["kernel"]["input_dim"],
        )
        arrays = payload["arrays"]
        X = spec_to_array(arrays["X_train"])
        pseudo = PseudoObservations(spec_to_array(arrays["Z"]), _noise_from_payload(payload["noise"]))
        collapsed = cfg.backend == "collapsed"
        if ("Xu" in arrays) != collapsed:
            raise ValueError("a collapsed model needs an Xu array" if collapsed
                             else "an exact model has no Xu array")
        Xu = spec_to_array(arrays["Xu"]) if collapsed else None
        if X.shape != (pseudo.n, kern.input_dim):
            raise ValueError(f"array shapes do not match: X_train {X.shape}, Z {pseudo.Z.shape}, "
                             f"input_dim {kern.input_dim}")
        if collapsed and Xu.shape != (cfg.num_inducing, kern.input_dim):
            raise ValueError(f"Xu has shape {Xu.shape}, expected (num_inducing, input_dim) = "
                             f"{(cfg.num_inducing, kern.input_dim)}")
        if pseudo.latent_dim != cfg.latent_dim:
            raise ValueError(f"the targets have {pseudo.latent_dim} latent coordinates, "
                             f"the classifier expects {cfg.latent_dim}")
        norm = NormStats.from_dict(payload["normalization"]) if payload["normalization"] else None
        if norm is not None and norm.center.shape != (kern.input_dim,):
            raise ValueError(f"normalization has {norm.center.size} features, input_dim is {kern.input_dim}")
        split = _split_from_payload(payload["split"]) if payload["split"] else None
        seed = _number(payload, "seed", int)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        if collapsed:
            model = finalize_collapsed(X, Xu, pseudo, kern, fit_info=payload.get("fit_info"))
        else:
            model = finalize_exact(X, pseudo, kern, fit_info=payload.get("fit_info"))
    except np.linalg.LinAlgError:  # a ValueError, but a numerical failure, not a bad file
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # OverflowError: an int past float range
        raise ConfigError(f"{path}: malformed model file ({type(e).__name__}: {e})") from None
    return ModelArtifact(
        classifier_config=cfg,
        model=model,
        norm_stats=norm,
        seed=seed,
        split=split,
        label_column=payload.get("label_column", "label"),
        data_fingerprint=payload.get("data_fingerprint", {}),
        effective_config=payload.get("effective_config", {}),
    )
