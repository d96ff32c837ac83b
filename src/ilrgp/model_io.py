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
from dataclasses import asdict, dataclass

import numpy as np

from .classifiers import ClassifierConfig, classifier_config
from .data import ConfigError, NormStats, SplitSpec, _number, read_json, write_json
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
    """The array a block of :func:`array_to_spec` holds; any other block raises ValueError.

    The shape must list every dimension, so the reshape checks the byte count.
    """
    if spec["dtype"] != "float64":
        raise ValueError(f"array dtype must be float64, got {spec['dtype']!r}")
    shape = spec["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"array shape must be a list of non-negative integers, got {shape!r}")
    raw = base64.b64decode(spec["b64"])
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


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


def _kernel_from_payload(block: dict) -> RbfKernel:
    """The saved kernel; its signal variance and squared lengthscale must be finite and positive.

    A fit's trial point may overflow and read as a non-finite objective; a
    saved kernel that does would give NaN or constant predictions.
    """
    kern = RbfKernel(**block)
    with np.errstate(over="ignore", under="ignore"):
        sf2, l2 = np.exp([kern.log_signal_variance, 2.0 * kern.log_lengthscale]).tolist()
    if not (0.0 < sf2 < np.inf and 0.0 < l2 < np.inf):
        raise ValueError(f"kernel signal variance and squared lengthscale must be finite and positive, "
                         f"got {sf2!r} and {l2!r}")
    return kern


def _split_from_payload(block: dict) -> SplitSpec:
    """The saved split: fractions or counts, checked by SplitSpec, and an integer seed."""
    if set(block) != {"train", "val", "test", "seed"}:
        raise ValueError(f"split must have the keys train, val, test and seed, got {sorted(block)}")
    return SplitSpec(block["train"], block["val"], block["test"], seed=_number(block, "seed", int))


def save_model(path, artifact: ModelArtifact):
    model = artifact.model
    arrays = {"X_train": model.X_train, "Z": model.pseudo.Z}
    if artifact.classifier_config.backend == "collapsed":
        arrays["Xu"] = model.Xu
    payload = {
        "format": FORMAT,
        "classifier": artifact.classifier_config.to_dict(),
        "kernel": asdict(model.kernel),
        "arrays": {name: array_to_spec(a) for name, a in arrays.items()},
        "noise": _noise_payload(model.pseudo),
        "normalization": artifact.norm_stats.to_dict() if artifact.norm_stats else None,
        "seed": artifact.seed,
        "split": asdict(artifact.split) if artifact.split else None,
        "label_column": artifact.label_column,
        "data_fingerprint": artifact.data_fingerprint,
        "effective_config": artifact.effective_config,
        "fit_info": model.fit_info,
    }
    write_json(path, payload)


def load_model(path) -> ModelArtifact:
    """Read a model file; a file that is not a well-formed model raises ConfigError.

    The classifier's ``backend`` picks the model: a collapsed file must hold
    ``Xu`` of shape ``(num_inducing, input_dim)``, an exact file no ``Xu``.
    ``X_train`` is checked against ``Z`` and ``input_dim`` by the backend's
    objective, which raises ValueError for a mismatch as the checks here do.
    """
    payload = read_json(path, "model file")
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        found = payload.get("format") if isinstance(payload, dict) else None
        raise ConfigError(f"{path}: unsupported model format {found!r}")
    try:
        block = payload["classifier"]
        cfg = classifier_config(block, _number(block, "num_classes", int))
        kern = _kernel_from_payload(payload["kernel"])
        arrays = payload["arrays"]
        X = spec_to_array(arrays["X_train"])
        pseudo = PseudoObservations(spec_to_array(arrays["Z"]), _noise_from_payload(payload["noise"]))
        collapsed = cfg.backend == "collapsed"
        if ("Xu" in arrays) != collapsed:
            raise ValueError("a collapsed model needs an Xu array" if collapsed
                             else "an exact model has no Xu array")
        Xu = spec_to_array(arrays["Xu"]) if collapsed else None
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
        fingerprint = payload.get("data_fingerprint", {})
        if not isinstance(fingerprint, dict):
            raise ValueError(f"data_fingerprint must be a JSON object, got {fingerprint!r}")
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
        data_fingerprint=fingerprint,
        effective_config=payload.get("effective_config", {}),
    )
