"""Loss functions, their certified Lipschitz constants, and trajectory losses.

Two losses are supported: squared Euclidean error for regression and softmax
cross-entropy against soft labels.  The empirical loss averages over a
trajectory with the predictor started at a given initial state; the
infinite-horizon variant removes the start-up transient via burn-in, and the
gap between the two admits a closed-form bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import GainPair, StabilityConstants, gain_pair, transient_bracket
from .dynsys import RnnSystem, Trajectory, simulate
from .errors import INT, NONNEGATIVE, POSITIVE, ConfigError, check
from .mixing import DataConstants


@dataclass(frozen=True)
class LossSpec:
    """Loss selector: kind in {"square", "softmax_xent"}, classes = K for softmax."""

    kind: str
    classes: int = 0

    def __post_init__(self):
        if self.kind not in ("square", "softmax_xent"):
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if self.kind == "softmax_xent":
            check("classes", self.classes, INT, (lambda v: v >= 2, ">= 2"), error=ConfigError)


def loss_value(spec: LossSpec, y: np.ndarray, yhat: np.ndarray) -> float:
    """Pointwise loss of prediction ``yhat`` against target ``y``."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape:
        raise ValueError(f"shape mismatch: y {y.shape} vs yhat {yhat.shape}")
    if spec.kind == "square":
        diff = yhat - y
        return float(diff @ diff)
    if y.shape != (spec.classes,):
        raise ValueError(f"softmax loss expects {spec.classes} coordinates")
    if np.any(y < 0.0) or np.any(y > 1.0):
        raise ValueError("soft labels must lie in [0, 1]")
    shift = float(np.max(yhat))
    lse = shift + math.log(float(np.sum(np.exp(yhat - shift))))
    return float(np.sum(y * (lse - yhat)))


def loss_lipschitz(spec: LossSpec, data: DataConstants, gh: GainPair) -> float:
    """The loss constant l_ell that the bound uses, from b_q and the gain g.

    square:       2 * b_q * g
    softmax_xent: K * (2 * b_q * g + ln K + 2)

    For the pipeline's predictors the square form is no Lipschitz constant of
    the loss: the transient gap exceeds its bound on seed 0's cloud (README
    "Known-red", ROADMAP item 9).
    """
    if spec.kind == "square":
        return 2.0 * data.b_q * gh.g
    return spec.classes * (2.0 * data.b_q * gh.g + math.log(spec.classes) + 2.0)


def _mean_loss(spec: LossSpec, outputs: np.ndarray, preds: np.ndarray) -> float:
    # One running sum in time order, the rule of the cloud loss pass too
    # (cloudloss.prefix_losses), so both losses here agree bit for bit on a
    # window.
    acc = 0.0
    for y, yhat in zip(outputs, preds):
        acc += loss_value(spec, y, yhat)
    return acc / len(outputs)


def empirical_loss(
    spec: LossSpec, pred_sys: RnnSystem, s0: np.ndarray, data: Trajectory
) -> float:
    """Average loss over the trajectory with the predictor started at ``s0``."""
    if data.inputs.shape[1] != pred_sys.n_v:
        raise ValueError("predictor input dimension does not match trajectory")
    _, preds = simulate(pred_sys, s0, data.inputs)
    return _mean_loss(spec, data.outputs, preds)


def infinite_horizon_loss(
    spec: LossSpec, pred_sys: RnnSystem, data_with_prefix: Trajectory, burn_in: int
) -> float:
    """Average loss with the start-up transient removed.

    Runs the predictor from the zero state over the full input list and
    averages only over the window after the burn-in prefix, which
    approximates the loss of the steady-state prediction trajectory.
    """
    length = data_with_prefix.length
    check("burn_in", burn_in, INT, NONNEGATIVE,
          (lambda v: v < length, f"< the trajectory length {length}"))
    if data_with_prefix.inputs.shape[1] != pred_sys.n_v:
        raise ValueError("predictor input dimension does not match trajectory")
    _, preds = simulate(pred_sys, np.zeros(pred_sys.n_s), data_with_prefix.inputs)
    return _mean_loss(spec, data_with_prefix.outputs[burn_in:], preds[burn_in:])


def transient_gap_bound(
    c: StabilityConstants, l_ell: float, b_q: float, s0_norm: float, n: int
) -> float:
    """The transient term (l_ell * c / n) * transient_bracket, with h from gain_pair(c).

    It is meant to bound |empirical loss - infinite-horizon loss| when b_q
    bounds the predictor inputs and l_ell is a Lipschitz constant of the
    loss; with the pipeline's l_ell it does not (README "Known-red",
    ROADMAP item 9).
    """
    check("n", n, INT, POSITIVE)
    return (l_ell * c.c / n) * transient_bracket(c, gain_pair(c), b_q, s0_norm)
