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

from .certify import GainPair, StabilityConstants, gain_pair
from .dynsys import RnnSystem, Trajectory, simulate
from .errors import ConfigError, NotStableError
from .mixing import DataConstants


@dataclass(frozen=True)
class LossSpec:
    """Loss selector: kind in {"square", "softmax_xent"}, classes = K for softmax."""

    kind: str
    classes: int = 0

    def __post_init__(self):
        if self.kind not in ("square", "softmax_xent"):
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if self.kind == "softmax_xent" and self.classes < 2:
            raise ConfigError("softmax cross-entropy needs classes >= 2")


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


def loss_lipschitz(
    spec: LossSpec, data: DataConstants, gh: GainPair, conservative: bool = False
) -> float:
    """Certified Lipschitz constant of the loss on the reachable range.

    square:       2 * b_q * g          (conservative=True: 2 * b_q * (g + 1),
                                         which also covers the label amplitude)
    softmax_xent: K * (2 * b_q * g + ln K + 2)
    """
    if spec.kind == "square":
        g = gh.g + 1.0 if conservative else gh.g
        return 2.0 * data.b_q * g
    return spec.classes * (2.0 * data.b_q * gh.g + math.log(spec.classes) + 2.0)


def empirical_loss(
    spec: LossSpec, pred_sys: RnnSystem, s0: np.ndarray, data: Trajectory
) -> float:
    """Average loss over the trajectory with the predictor started at ``s0``."""
    if data.inputs.shape[1] != pred_sys.n_v:
        raise ValueError("predictor input dimension does not match trajectory")
    _, preds = simulate(pred_sys, s0, data.inputs)
    acc = 0.0
    for t in range(data.length):
        acc += loss_value(spec, data.outputs[t], preds[t])
    return acc / data.length


def infinite_horizon_loss(
    spec: LossSpec, pred_sys: RnnSystem, data_with_prefix: Trajectory, burn_in: int
) -> float:
    """Average loss with the start-up transient removed.

    Runs the predictor from the zero state over the full input list and
    averages only over the window after the burn-in prefix, which
    approximates the loss of the steady-state prediction trajectory.
    """
    if burn_in < 0 or burn_in >= data_with_prefix.length:
        raise ValueError("burn_in must satisfy 0 <= burn_in < trajectory length")
    if data_with_prefix.inputs.shape[1] != pred_sys.n_v:
        raise ValueError("predictor input dimension does not match trajectory")
    _, preds = simulate(pred_sys, np.zeros(pred_sys.n_s), data_with_prefix.inputs)
    acc = 0.0
    n = data_with_prefix.length - burn_in
    for t in range(burn_in, data_with_prefix.length):
        acc += loss_value(spec, data_with_prefix.outputs[t], preds[t])
    return acc / n


def transient_gap_bound(
    c: StabilityConstants, l_ell: float, b_q: float, s0_norm: float, n: int
) -> float:
    """Deterministic bound on |empirical loss - infinite-horizon loss|.

        (l_ell * c / n) * (2 * b_q * h + s0_norm * l_gs / (1 - tau))

    valid whenever b_q bounds the sup-norm of the predictor inputs and the
    steady state obeys the amplitude bound 2*b_q*l_v/(1-tau).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if c.tau >= 1.0:
        raise NotStableError(f"tau = {c.tau} >= 1", value=c.tau)
    h = gain_pair(c).h
    return (l_ell * c.c / n) * (2.0 * b_q * h + s0_norm * c.l_gs / (1.0 - c.tau))
