"""Evaluation metrics: error rate, categorical NLL, and top-label ECE.

Classes are numbered ``1..K``. Confidence bins partition [0, 1] into
equal-width intervals, left-closed and right-open except that the last bin
also contains 1.0.
"""

from dataclasses import asdict, dataclass

import numpy as np

# Floor applied to probabilities before taking logs, so a Monte-Carlo zero
# cannot produce an infinite NLL.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class BinRecord:
    lower: float
    upper: float
    count: int
    confidence: float
    accuracy: float


@dataclass(frozen=True)
class EvalReport:
    """Error rate, NLL and ECE for one prediction set, with reliability bins."""

    error: float
    nll: float
    ece: float
    bins: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def _check_probs_labels(probs, labels):
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    if probs.ndim != 2:
        raise ValueError(f"probs must be (T, K), got shape {probs.shape}")
    if labels.shape != (probs.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} does not match {probs.shape[0]} prediction rows"
        )
    K = probs.shape[1]
    if np.any(labels < 1) or np.any(labels > K):
        raise ValueError(f"labels must lie in 1..{K}")
    return probs, labels.astype(int)


def error_rate(labels_hat, labels) -> float:
    """Fraction of mismatched labels."""
    labels_hat = np.asarray(labels_hat)
    labels = np.asarray(labels)
    if labels_hat.shape != labels.shape:
        raise ValueError(f"length mismatch: {labels_hat.shape} vs {labels.shape}")
    return float(np.mean(labels_hat != labels))


def nll(probs, labels) -> float:
    """Mean categorical cross entropy of the true-class probabilities."""
    probs, labels = _check_probs_labels(probs, labels)
    picked = probs[np.arange(probs.shape[0]), labels - 1]
    return float(-np.mean(np.log(np.maximum(picked, PROB_FLOOR))))


def ece(probs, labels, bins: int = 10):
    """Expected calibration error with equal-width confidence bins.

    For more than two classes the confidence is the top-label probability
    and a prediction counts as accurate when the argmax matches the label.
    For two classes the confidence is the class-1 probability and bin
    accuracy is the empirical class-1 frequency, the usual binary
    reliability-curve convention.

    Returns ``(ece_value, bin_records)``.
    """
    probs, labels = _check_probs_labels(probs, labels)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    T, K = probs.shape
    if K == 2:
        conf = probs[:, 0]
        hit = (labels == 1).astype(float)
    else:
        conf = probs.max(axis=1)
        hit = (probs.argmax(axis=1) + 1 == labels).astype(float)

    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.digitize(conf, edges[1:-1])  # left-closed bins; last includes 1.0
    records = []
    total = 0.0
    for m in range(bins):
        mask = idx == m
        count = int(mask.sum())
        if count > 0:
            bin_conf = float(conf[mask].mean())
            bin_acc = float(hit[mask].mean())
            total += (count / T) * abs(bin_acc - bin_conf)
        else:
            bin_conf = 0.0
            bin_acc = 0.0
        records.append(BinRecord(float(edges[m]), float(edges[m + 1]), count, bin_conf, bin_acc))
    return total, records


def evaluate(probs, labels, labels_hat=None, bins: int = 10) -> EvalReport:
    """Assemble the full report for one prediction set."""
    probs, labels = _check_probs_labels(probs, labels)
    if labels_hat is None:
        labels_hat = probs.argmax(axis=1) + 1
    err = error_rate(labels_hat, labels)
    loss = nll(probs, labels)
    cal, records = ece(probs, labels, bins)
    return EvalReport(err, loss, cal, tuple(records))
