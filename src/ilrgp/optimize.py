"""Adam-style ascent with a monotonicity safeguard.

Used for the two log-scale kernel hyperparameters. Proposed steps that would
decrease the objective are halved until they improve it, so the value over
accepted iterates is non-decreasing; if no scaled-down step improves, the
run stops at the current point. A run reports itself converged only when
the largest gradient component at its final point is below ``grad_tol``.
"""

from dataclasses import dataclass

import numpy as np

# Adam moment decay rates and denominator guard, and the number of times a
# step is halved before the run stops.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
_MAX_HALVINGS = 25


class FitError(RuntimeError):
    """Raised when the objective turns non-finite; carries the last good params."""

    def __init__(self, message, last_params=None, last_value=None):
        super().__init__(message)
        self.last_params = last_params
        self.last_value = last_value


@dataclass(frozen=True)
class OptConfig:
    learning_rate: float = 1e-2
    max_iters: int = 500
    grad_tol: float = 1e-5

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be non-negative, got {self.max_iters}")
        if not self.grad_tol >= 0:
            raise ValueError(f"grad_tol must be non-negative, got {self.grad_tol}")


@dataclass(frozen=True)
class OptResult:
    params: np.ndarray
    value: float
    iterations: int
    converged: bool
    grad_max: float  # max |gradient component| at ``params``

    def fit_info(self) -> dict:
        """The run summary a fitted model records."""
        return {
            "objective": self.value,
            "iterations": self.iterations,
            "converged": self.converged,
            "final_grad_max": self.grad_max,
        }


def adam_maximize(value_and_grad, x0, config: OptConfig | None = None, value_only=None) -> OptResult:
    """Maximize a smooth objective from ``x0``.

    Parameters
    ----------
    value_and_grad : callable
        Maps a parameter vector to ``(value, gradient)``.
    x0 : array_like
        Starting point.
    config : OptConfig, optional
    value_only : callable, optional
        Cheaper objective-only evaluation used for trial points during the
        halving search; defaults to ``value_and_grad``.

    Returns
    -------
    OptResult
    """
    cfg = config or OptConfig()
    if value_only is None:
        value_only = lambda x: value_and_grad(x)[0]

    x = np.asarray(x0, dtype=float).copy()
    f, g = value_and_grad(x)
    if not np.isfinite(f):
        raise FitError("objective non-finite at the initial point", last_params=None)

    def result(iterations):
        grad_max = float(np.max(np.abs(g)))
        return OptResult(x, float(f), iterations, grad_max < cfg.grad_tol, grad_max)

    m = np.zeros_like(x)
    v = np.zeros_like(x)
    iterations = 0
    for t in range(1, cfg.max_iters + 1):
        if np.max(np.abs(g)) < cfg.grad_tol:
            return result(iterations)

        m = _BETA1 * m + (1.0 - _BETA1) * g
        v = _BETA2 * v + (1.0 - _BETA2) * g * g
        mhat = m / (1.0 - _BETA1**t)
        vhat = v / (1.0 - _BETA2**t)
        step = cfg.learning_rate * mhat / (np.sqrt(vhat) + _EPS)

        scale = 1.0
        accepted = False
        f_try = np.nan
        for _ in range(_MAX_HALVINGS + 1):
            x_try = x + scale * step
            f_try = value_only(x_try)
            if np.isfinite(f_try) and f_try >= f:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            if not np.isfinite(f_try):
                raise FitError(
                    "objective became non-finite during optimization",
                    last_params=x.copy(),
                    last_value=float(f),
                )
            # No scaled-down step improves: the current point is as good as
            # this direction gets. Stop; the gradient test decides `converged`.
            return result(iterations)

        x = x_try
        f, g = value_and_grad(x)
        iterations = t
        if not np.isfinite(f):
            raise FitError(
                "objective became non-finite during optimization",
                last_params=x.copy(),
                last_value=None,
            )

    return result(iterations)


def maximize_kernel(objective, k0, config: OptConfig | None = None):
    """Fit a kernel's log parameters by ascent on ``objective``, starting from ``k0``.

    ``objective`` has ``value(params)`` and ``value_and_grad(params)`` over
    ``k0.log_params``. Returns the fitted kernel and the run summary a fitted
    model records.
    """
    result = adam_maximize(objective.value_and_grad, np.array(k0.log_params), config,
                           value_only=objective.value)
    return k0.with_params(*result.params), result.fit_info()
