import json
import math

import numpy as np
import pytest

from ilrgp.metrics import BinRecord, EvalReport, ece, error_rate, evaluate, nll


class TestErrorRate:
    def test_identical(self):
        assert error_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_all_wrong(self):
        assert error_rate([1, 1, 1], [2, 2, 2]) == 1.0

    def test_half(self):
        assert error_rate([1, 2, 1, 2], [1, 2, 2, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_rate([1, 2], [1, 2, 3])


class TestNll:
    def test_uniform_three_classes(self):
        probs = np.full((10, 3), 1 / 3)
        labels = np.arange(10) % 3 + 1
        assert nll(probs, labels) == pytest.approx(math.log(3), abs=1e-12)

    def test_one_hot_correct(self):
        probs = np.eye(3)
        assert nll(probs, [1, 2, 3]) == 0.0

    def test_floor_prevents_infinity(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert nll(probs, [2, 1]) == pytest.approx(-math.log(1e-12), rel=1e-12)

    def test_hand_oracle(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
        labels = [1, 3, 2]
        expected = -(math.log(0.7) + math.log(0.3) + math.log(0.25)) / 3
        assert nll(probs, labels) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nll(np.full((3, 2), 0.5), [1, 2])
        with pytest.raises(ValueError):
            nll(np.full((2, 2), 0.5), [1, 3])


def ece_rebinning_oracle(probs, labels, bins=10):
    """Straightforward per-point re-binning, independent of the implementation."""
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    K = probs.shape[1]
    if K == 2:
        conf = probs[:, 0]
        correct = (labels == 1).astype(float)
    else:
        conf = probs.max(axis=1)
        correct = (probs.argmax(axis=1) + 1 == labels).astype(float)
    total = 0.0
    n = len(labels)
    for m in range(bins):
        lo, hi = m / bins, (m + 1) / bins
        if m == bins - 1:
            mask = (conf >= lo) & (conf <= hi)
        else:
            mask = (conf >= lo) & (conf < hi)
        if mask.sum() == 0:
            continue
        total += (mask.sum() / n) * abs(correct[mask].mean() - conf[mask].mean())
    return total


class TestEce:
    def test_sharp_and_correct_is_zero(self):
        probs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        value, _ = ece(probs, [1, 2])
        assert value == 0.0

    def test_single_bin_gap(self):
        # all mass in one bin: confidence 0.75, accuracy 0.5
        probs = np.array([[0.75, 0.2, 0.05]] * 4)
        labels = [1, 1, 2, 3]
        value, records = ece(probs, labels)
        assert value == pytest.approx(0.25, abs=1e-12)
        occupied = [r for r in records if r.count > 0]
        assert len(occupied) == 1
        assert occupied[0].lower == pytest.approx(0.7)

    def test_constant_confidence_gap(self):
        # accuracy a with constant confidence q gives |q - a|
        rng = np.random.default_rng(0)
        q, n = 0.6, 500
        labels = np.where(rng.random(n) < 0.35, 1, 2)
        probs = np.column_stack([np.full(n, q), np.full(n, 1 - q)])
        # K=2: confidence is the class-1 entry, accuracy the class-1 rate
        value, _ = ece(probs.repeat(1, axis=0), labels)
        assert value == pytest.approx(abs(q - np.mean(labels == 1)), abs=1e-12)

    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_matches_rebinning_oracle(self, K):
        rng = np.random.default_rng(K)
        probs = rng.random((100, K))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(1, K + 1, size=100)
        value, records = ece(probs, labels)
        assert value == pytest.approx(ece_rebinning_oracle(probs, labels), abs=1e-12)
        assert sum(r.count for r in records) == 100

    def test_recomputable_from_bins(self):
        rng = np.random.default_rng(42)
        probs = rng.random((200, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(1, 5, size=200)
        value, records = ece(probs, labels)
        rebuilt = sum(r.count / 200 * abs(r.accuracy - r.confidence) for r in records)
        assert value == pytest.approx(rebuilt, abs=1e-12)
        assert 0.0 <= value <= 1.0

    def test_edge_confidences(self):
        # confidence exactly 1.0 lands in the last bin
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        _, records = ece(probs, [1, 1])
        assert records[-1].count == 1
        assert records[5].count == 1  # 0.5 lands in [0.5, 0.6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        probs = rng.random((50, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(1, 4, size=50)
        perm = rng.permutation(50)
        v1, _ = ece(probs, labels)
        v2, _ = ece(probs[perm], labels[perm])
        assert v1 == pytest.approx(v2, abs=1e-15)

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            ece(np.full((2, 2), 0.5), [1, 2], bins=0)


class TestEvalReport:
    def test_assembles_all_metrics(self):
        rng = np.random.default_rng(5)
        probs = rng.random((60, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(1, 4, size=60)
        report = evaluate(probs, labels)
        assert report.error == error_rate(probs.argmax(axis=1) + 1, labels)
        assert report.nll == nll(probs, labels)
        assert report.ece == ece(probs, labels)[0]
        assert len(report.bins) == 10

    def test_json_round_trip(self):
        rng = np.random.default_rng(6)
        probs = rng.random((30, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(1, 4, size=30)
        report = evaluate(probs, labels)
        payload = json.loads(json.dumps(report.to_dict()))
        assert set(payload) == {"error", "nll", "ece", "bins"}
        assert (payload["error"], payload["nll"], payload["ece"]) == (report.error, report.nll, report.ece)
        assert [BinRecord(**b) for b in payload["bins"]] == list(report.bins)
