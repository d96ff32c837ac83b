"""Projected BFGS ascent under lower bounds, for the log kernel and noise-scale parameters.

Each iteration takes a BFGS step on the coordinates not held at their bound,
projects it onto the bounds and accepts it only by a strict Armijo test,
halving it otherwise. A run converges when the largest projected gradient
component is below ``grad_tol``, or when halving leaves a step whose
predicted gain is below the objective's round-off. It stops unconverged
after ``max_iters`` accepted steps, or when every halved step fails above
round-off.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# Longest step per coordinate (log units), the Armijo factor, and how often a
# rejected step is halved. Near a maximum the objective's round-off exceeds
# what a step can gain, so more halvings, or trying a step whose predicted
# gain is below one unit of round-off of the value, only cost evaluations.
_MAX_STEP = 2.0
_ARMIJO = 1e-4
_MAX_HALVINGS = 8
_EPS = np.finfo(float).eps


class FitError(RuntimeError):
    """Raised when the objective turns non-finite; carries the last good params."""

    def __init__(self, message, last_params=None, last_value=None):
        super().__init__(message)
        self.last_params = last_params
        self.last_value = last_value


class Evaluation(NamedTuple):
    """An objective at one parameter point: value, gradient (None if not asked for) and model."""

    value: float
    grad: np.ndarray | None
    model: object


@dataclass(frozen=True)
class OptConfig:
    max_iters: int = 500
    grad_tol: float = 1e-5

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be non-negative, got {self.max_iters}")
        if not self.grad_tol >= 0:
            raise ValueError(f"grad_tol must be non-negative, got {self.grad_tol}")


@dataclass(frozen=True)
class OptResult:
    params: np.ndarray
    value: float
    iterations: int  # accepted steps
    evaluations: int  # objective evaluations, the starting point included
    stop: str  # "grad_tol", "round_off", "max_iters" or "line_search"
    grad_max: float  # max |projected gradient component| at ``params``
    record: tuple  # what ``evaluate`` returned at ``params``

    @property
    def converged(self) -> bool:
        return self.stop in ("grad_tol", "round_off")

    def fit_info(self) -> dict:
        """The run summary a fitted model records."""
        return {
            "objective": self.value,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "converged": self.converged,
            "stop": self.stop,
            "final_grad_max": self.grad_max,
        }


def bfgs_maximize(evaluate, x0, lower, config: OptConfig | None = None) -> OptResult:
    """Maximize a smooth objective from ``x0`` subject to ``x >= lower``.

    ``evaluate`` maps a parameter vector to a record whose first two entries
    are the value and the gradient; it is called once per point tried.
    ``lower`` holds one bound per coordinate (``-inf`` for none); ``x0`` is
    projected onto it. The result carries the record at its final point, the
    last accepted one. A rejected trial's record is released before the
    next trial is evaluated, so while ``evaluate`` runs the only earlier
    record alive is the accepted one.
    """
    cfg = config or OptConfig()
    lower = np.asarray(lower, dtype=float)
    x = np.maximum(np.asarray(x0, dtype=float), lower)
    ev = evaluate(x)
    f, g = ev[0], ev[1]
    if not np.isfinite(f):
        raise FitError("objective non-finite at the initial point", last_params=None)
    evaluations, iterations, first_update = 1, 0, True
    H = np.eye(x.size)  # inverse-Hessian estimate of -f
    while True:
        # Coordinates at their bound whose gradient points below it are held.
        free = (x > lower) | (g >= 0.0)
        pg = np.where(free, g, 0.0)
        if np.max(np.abs(pg)) < cfg.grad_tol:
            stop = "grad_tol"
            break
        if iterations == cfg.max_iters:
            stop = "max_iters"
            break
        d = np.zeros(x.size)
        d[free] = H[np.ix_(free, free)] @ g[free]
        d *= min(1.0, _MAX_STEP / np.max(np.abs(d)))

        scale, outcome, f_try = 1.0, "line_search", f
        for _ in range(_MAX_HALVINGS + 1):
            if scale * float(g @ d) <= _EPS * abs(f):
                outcome = "round_off"
                break
            x_try = np.maximum(x + scale * d, lower)
            ev_try = evaluate(x_try)
            f_try = ev_try[0]
            evaluations += 1
            if f_try - f > _ARMIJO * max(float(g @ (x_try - x)), 0.0):
                outcome = "accepted"
                break
            scale *= 0.5
            ev_try = None  # rejected: not kept while the next trial is evaluated
        if outcome != "accepted":
            if not np.isfinite(f_try):
                raise FitError("objective became non-finite during optimization", x.copy(), float(f))
            stop = outcome
            break
        s, y = x_try - x, g - ev_try[1]  # step and change in the gradient of -f
        sy = float(s @ y)
        if sy > 0.0:
            if first_update:
                H *= sy / float(y @ y)
                first_update = False
            rho = 1.0 / sy
            V = np.eye(x.size) - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)
        x, f, g, ev = x_try, f_try, ev_try[1], ev_try
        iterations += 1

    return OptResult(x, float(f), iterations, evaluations, stop, float(np.max(np.abs(pg))), ev)


def maximize_kernel(objective, k0, config: OptConfig | None = None, log_c0=None):
    """Fit ``k0.log_params`` on ``objective``, and ``log c >= 0`` from ``log_c0`` unless it is None.

    ``objective.evaluate`` maps those parameters to an :class:`Evaluation`.
    Returns the model of the evaluation at the fitted point, carrying the
    run summary as its ``fit_info``.
    """
    x0 = np.array(k0.log_params + (() if log_c0 is None else (log_c0,)))
    lower = np.array([-np.inf, -np.inf, 0.0])[:x0.size]
    result = bfgs_maximize(objective.evaluate, x0, lower, config)
    info = result.fit_info()
    info["noise_scale"] = 1.0 if log_c0 is None else float(np.exp(result.params[2]))
    return replace(result.record.model, fit_info=info)
