import pytest

from ilrgp.experiments import (
    run_experiment,
    run_gpd_recovery,
    run_overlap_lambda,
    run_scaling_k,
    run_sigma_bound_table,
)
from ilrgp.simplex import SmoothingConfig, sigma_bound


class TestSigmaBoundTable:
    def test_values_delegate_to_closed_form(self):
        rows, summary = run_sigma_bound_table({"lambda_grid": [0.9, 0.99], "k_values": [3, 5]})
        assert len(rows) == 4
        for row in rows:
            cfg = SmoothingConfig(row["lambda"], row["K"], row["epsilon"])
            assert row["sigma"] == pytest.approx(sigma_bound(cfg), abs=1e-15)

    def test_summary_keys(self):
        _, summary = run_sigma_bound_table({"lambda_grid": [0.9], "k_values": [2]})
        assert "K=2,lambda=0.9" in summary


class TestGpdRecovery:
    def test_grid_shape_and_monotone_k(self):
        rows, _ = run_gpd_recovery(
            {"k_values": [2, 16], "alpha_eps_grid": [0.1], "num_samples": 20_000}
        )
        assert len(rows) == 2
        assert rows[0]["error"] < rows[1]["error"]


class TestTinyPipelines:
    def test_overlap_lambda_rows(self):
        rows, summary = run_overlap_lambda(
            {"s_values": [0.2], "num_seeds": 1, "n": 120, "max_iters": 10,
             "lambda_grid": [0.9, 0.99], "mc_samples": 50}
        )
        assert len(rows) == 2
        assert set(rows[0]) >= {"s", "seed", "lambda", "val_nll", "test_nll"}
        assert "winner_lambda" in summary["s=0.2"]

    def test_scaling_k_rows(self):
        rows, summary = run_scaling_k(
            {"k_values": [3], "num_seeds": 1, "n_train": 90, "n_test": 90,
             "max_iters": 10, "lambda_grid": [0.99], "mc_samples": 50}
        )
        assert len(rows) == 1
        assert "nearest_center_error" in rows[0]
        assert "K=3" in summary


def test_scaling_k_at_the_default_iteration_cap():
    # With the noise held at the overlap bound the fit drifted to a white-noise
    # kernel on these overlapping classes (error gap 0.29 at 500 Adam steps);
    # the fitted noise scale keeps it at the nearest-center rule.
    _, summary = run_scaling_k({"k_values": [4], "lambda_grid": [0.99], "max_iters": 500})
    assert abs(summary["K=4"]["error_gap"]["mean"]) <= 0.05


def test_unknown_experiment_name():
    with pytest.raises(ValueError):
        run_experiment("tesseract", {})
