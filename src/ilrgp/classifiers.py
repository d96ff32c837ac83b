"""End-to-end classifiers over the latent GP backends.

Two constructions are provided. The log-ratio classifier embeds each label
as the latent image of a smoothed one-hot vector and regresses with a fixed
shared noise variance, using K - 1 latent coordinates. The Dirichlet-based
baseline regresses moment-matched log-concentration targets with
label-dependent heteroscedastic noise, using K latent coordinates.

Monte-Carlo prediction draws from the per-coordinate Gaussian predictive
(optionally with the likelihood noise added, the "noisy-z" mode), pushes
each draw through the inverse link, and averages. A per-point RNG substream
keeps predictions independent of evaluation order.
"""

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .data import ConfigError, _number
from .gp import PseudoObservations, fit_exact
from .optimize import OptConfig
from .simplex import (
    SmoothingConfig,
    class_target_matrix,
    helmert_basis,
    sigma_bound,
    softmax_rows,
)
from .sparse import fit_collapsed

PREDICTION_MODES = ("latent-f", "noisy-z")
BACKENDS = ("exact", "collapsed")

# Monte-Carlo draws pushed through the link per block of test points in
# predict_proba: enough that numpy's per-call overhead is amortised over many
# points, few enough that a block's buffers stay at a few megabytes.
_MC_BLOCK_DRAWS = 1 << 16


def derive_seed(*parts) -> int:
    """Fold integer parts into one reproducible 32-bit seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True, kw_only=True)
class ClassifierConfig:
    """Settings both classifiers share; each subclass owns its targets, link and file block."""

    mc_samples: int = 1000
    prediction_mode: str = "latent-f"
    backend: str = "exact"
    num_inducing: int | None = None
    backend_seed: int = 0

    def __post_init__(self):
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {self.mc_samples}")
        if self.prediction_mode not in PREDICTION_MODES:
            raise ValueError(f"prediction_mode must be one of {PREDICTION_MODES}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.backend == "collapsed" and (self.num_inducing is None or self.num_inducing < 1):
            raise ValueError("collapsed backend needs num_inducing >= 1")
        if self.backend_seed < 0:
            raise ValueError(f"backend_seed must be non-negative, got {self.backend_seed}")

    def to_dict(self) -> dict:
        """The model file's ``"classifier"`` block, under the configuration keys."""
        return {"model": self.kind, "num_classes": self.num_classes,
                **{f.name: getattr(self, f.name) for f in fields(ClassifierConfig)}}


@dataclass(frozen=True)
class IlrClassifierConfig(ClassifierConfig):
    """Configuration of the log-ratio classifier.

    ``noise_sigma`` defaults to the overlap bound for the smoothing setup;
    explicit values must stay at or below that bound and pin the noise
    scale at 1.
    """

    smoothing: SmoothingConfig
    noise_sigma: float | None = None
    kind = "ilr"

    def __post_init__(self):
        super().__post_init__()
        if self.noise_sigma is not None:
            bound = sigma_bound(self.smoothing)
            if not (0.0 < self.noise_sigma <= bound + 1e-12):
                raise ValueError(
                    f"noise_sigma must lie in (0, {bound!r}] for this smoothing setup"
                )

    @property
    def num_classes(self) -> int:
        return self.smoothing.num_classes

    @property
    def latent_dim(self) -> int:
        return self.num_classes - 1

    @property
    def fit_noise(self) -> bool:
        return self.noise_sigma is None

    def resolved_sigma(self) -> float:
        return sigma_bound(self.smoothing) if self.noise_sigma is None else self.noise_sigma

    def pseudo(self, labels) -> PseudoObservations:
        """Row n is the latent image of the smoothed one-hot vector of its class; the noise is shared."""
        rows = _check_labels(labels, self.num_classes) - 1
        return PseudoObservations(class_target_matrix(self.smoothing)[rows], self.resolved_sigma() ** 2)

    @cached_property
    def _helmert(self) -> np.ndarray:  # built once per config, not per Monte-Carlo block
        return helmert_basis(self.num_classes)

    def logits(self, F) -> np.ndarray:
        # The stacked product multiplies each point's (S, D) draws by H
        # separately, as a per-point loop would, so the rounding is the same.
        return F @ self._helmert

    def to_dict(self) -> dict:
        return {**super().to_dict(), "lambda": self.smoothing.lam,
                "epsilon": self.smoothing.epsilon, "noise_sigma": self.noise_sigma}


@dataclass(frozen=True)
class GpdClassifierConfig(ClassifierConfig):
    """Configuration of the Dirichlet-based baseline classifier."""

    alpha_eps: float
    num_classes: int
    kind = "gpd"
    fit_noise = True

    def __post_init__(self):
        super().__post_init__()
        if not (0 < self.alpha_eps < np.inf):
            raise ValueError(f"alpha_eps must be positive and finite, got {self.alpha_eps}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")

    @property
    def latent_dim(self) -> int:
        return self.num_classes

    def pseudo(self, labels) -> PseudoObservations:
        """Heteroscedastic pseudo-observations: the rows of :func:`gpd_target_rows` for each label."""
        rows = _check_labels(labels, self.num_classes) - 1
        Y, S2 = gpd_target_rows(self.num_classes, self.alpha_eps)
        return PseudoObservations(Y[rows], S2[rows])

    def logits(self, F) -> np.ndarray:
        return F

    def to_dict(self) -> dict:
        return {**super().to_dict(), "alpha_eps": self.alpha_eps}


def classifier_config(cfg: dict, num_classes: int) -> ClassifierConfig:
    """The classifier a ``--set`` configuration or a model file's ``"classifier"`` block describes.

    A missing key raises KeyError; a bad value raises ConfigError.
    """
    common = {
        "mc_samples": _number(cfg, "mc_samples", int),
        "prediction_mode": cfg["prediction_mode"],
        "backend": cfg["backend"],
        "num_inducing": None if cfg["num_inducing"] is None else _number(cfg, "num_inducing", int),
        "backend_seed": _number(cfg, "backend_seed", int),
    }
    try:
        if cfg["model"] == "ilr":
            smoothing = SmoothingConfig(_number(cfg, "lambda", float), num_classes,
                                        _number(cfg, "epsilon", float))
            noise = None if cfg["noise_sigma"] is None else _number(cfg, "noise_sigma", float)
            return IlrClassifierConfig(smoothing, noise, **common)
        if cfg["model"] == "gpd":
            return GpdClassifierConfig(_number(cfg, "alpha_eps", float), num_classes, **common)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    raise ConfigError(f"model must be 'ilr' or 'gpd', got {cfg['model']!r}")


@dataclass(frozen=True)
class PredictionSet:
    """Predictive class probabilities and hard labels for a batch of inputs."""

    probs: np.ndarray
    labels_hat: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError(f"probs must be (T, K), got shape {probs.shape}")
        if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("probability rows must be non-negative and sum to 1")
        labels_hat = np.asarray(self.labels_hat, dtype=int)
        if not np.array_equal(labels_hat, probs.argmax(axis=1) + 1):
            raise ValueError("labels_hat must be the per-row argmax (1-based)")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "labels_hat", labels_hat)


def _check_labels(labels, num_classes) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if np.any(labels < 1) or np.any(labels > num_classes):
        raise ValueError(f"labels must lie in 1..{num_classes}")
    return labels


def gpd_target_rows(num_classes: int, alpha_eps: float):
    """Per-class target and noise-variance rows of the Dirichlet construction.

    For a point of class k the concentration is ``1 + alpha_eps`` on
    coordinate k and ``alpha_eps`` elsewhere; matching the first two moments
    of each Gamma(alpha, 1) factor with a log-normal gives per-coordinate
    targets ``log(alpha) - s2/2`` and variances ``s2 = log(1 + 1/alpha)``.

    Returns ``(Y, S2)`` of shape (K, K): row k - 1 holds the values for a
    point whose class is k.
    """
    alpha_hot = 1.0 + alpha_eps
    s2_hot = np.log1p(1.0 / alpha_hot)
    s2_cold = np.log1p(1.0 / alpha_eps)
    y_hot = np.log(alpha_hot) - 0.5 * s2_hot
    y_cold = np.log(alpha_eps) - 0.5 * s2_cold
    Y = np.full((num_classes, num_classes), y_cold)
    S2 = np.full((num_classes, num_classes), s2_cold)
    np.fill_diagonal(Y, y_hot)
    np.fill_diagonal(S2, s2_hot)
    return Y, S2


def fit_classifier(X, labels, cfg: ClassifierConfig, opt_config: OptConfig | None = None):
    """Fit the configured backend to the config's pseudo-observations."""
    pseudo = cfg.pseudo(labels)
    if cfg.backend == "exact":
        return fit_exact(X, pseudo, opt_config, cfg.fit_noise)
    return fit_collapsed(X, pseudo, cfg.num_inducing, cfg.backend_seed, opt_config, cfg.fit_noise)


def predict_proba(model, X_star, cfg: ClassifierConfig, seed: int = 0) -> PredictionSet:
    """Monte-Carlo predictive class probabilities for a batch of inputs.

    Draws ``cfg.mc_samples`` latent samples per input from the Gaussian
    predictive selected by ``cfg.prediction_mode``, maps them through the
    inverse link of the configured classifier, and averages. Point ``i``
    uses the RNG substream ``(seed, i)``, so results do not depend on
    evaluation order and repeat exactly for equal seeds. Points are
    processed in blocks of about ``_MC_BLOCK_DRAWS`` draws; every draw goes
    through the same operations in the same order whatever the block, so
    the block size never changes a result and memory stays bounded by one
    block.

    The link runs sample-major: a block's logits are copied once into an
    (S, K, n) buffer, normalised there in place over the class axis, and
    summed over the outermost axis. A reduction over an outer axis adds
    samples 0, 1, ..., S - 1 in sequence for every (class, point) pair, the
    order a per-point ``mean(axis=0)`` over (S, K) draws uses, so the
    layout changes no bit; the inner extent K * n >= 2 keeps numpy from
    switching that sum to pairwise.
    """
    means, var = model.predictive(X_star)
    if cfg.prediction_mode == "noisy-z":
        # A scalar for shared noise, one value per coordinate otherwise.
        var = var + model.pseudo.observation_variance()
    T, D = means.shape
    K = cfg.num_classes
    if D != cfg.latent_dim:
        raise ValueError(f"model has {D} latent coordinates, config expects {cfg.latent_dim}")

    S = cfg.mc_samples
    sd = np.sqrt(var)
    block = max(1, _MC_BLOCK_DRAWS // S)
    draws_buf = np.empty((min(block, T), S, D))
    logits_buf = np.empty(S * K * min(block, T))
    probs = np.empty((T, K))
    for start in range(0, T, block):
        stop = min(start + block, T)
        n = stop - start
        draws = draws_buf[:n]
        for j in range(n):
            np.random.default_rng([seed, start + j]).standard_normal(out=draws[j])
        for d in range(D):
            draws[:, :, d] *= sd[start:stop, d, None]
            draws[:, :, d] += means[start:stop, d, None]
        logits = logits_buf[:S * K * n].reshape(S, K, n)
        logits[...] = cfg.logits(draws).transpose(1, 2, 0)
        softmax_rows(logits, axis=1, out=logits)
        total = np.add.reduce(logits.reshape(S, K * n), axis=0)
        total /= S
        probs[start:stop] = total.reshape(K, n).T
    return PredictionSet(probs, probs.argmax(axis=1) + 1)


def gpd_label_recovery_error(num_classes: int, alpha_eps: float,
                             num_samples: int = 100_000, seed: int = 0) -> float:
    """How often the Dirichlet construction alone loses the true class.

    No GP is involved: latent values are drawn from the log-normal
    moment-matched approximation under the true-class parameterization and
    pushed through the softmax; the result is the fraction of draws whose
    argmax is not the true class. Errors come from the heavy upper tail of
    the high-variance off-class coordinates.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    Y, S2 = gpd_target_rows(num_classes, alpha_eps)
    y = Y[0]
    s = np.sqrt(S2[0])
    rng = np.random.default_rng(seed)
    z = rng.lognormal(mean=np.broadcast_to(y, (num_samples, num_classes)),
                      sigma=np.broadcast_to(s, (num_samples, num_classes)))
    labels_hat = softmax_rows(z, out=z).argmax(axis=1) + 1
    return float(np.mean(labels_hat != 1))

