"""Assembly of the generalisation-gap bound from a prior sample cloud.

Per sampled parameter the two moment exponents are stored raw (before
exponentiation) and pooled with a stabilised log-mean-exp, so the bound stays
finite even when individual exponents reach 1e4.  The exponent formulas work
elementwise, so one call covers a whole cloud of per-sample constants.
Posterior quantities (KL divergence and posterior-expected empirical loss)
come from importance reweighting of the prior cloud with Gibbs log-weights,
which avoids sampling the posterior altogether.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .certify import GainPair, StabilityConstants, transient_bracket
from .errors import CONFIDENCE, INT, NONNEGATIVE, POSITIVE, REAL, InvalidConfidenceError, check
from .mixing import DataConstants
from .numerics import log_mean_exp, shifted_exp


@dataclass(frozen=True)
class SampleRecord:
    """Everything the bound needs about one prior draw."""

    theta: np.ndarray
    s0_norm: float
    constants: StabilityConstants
    gh: GainPair
    l_ell: float
    emp_loss: float
    psi1_exp: float
    psi2_exp: float

    def __post_init__(self):
        check("psi1_exp", self.psi1_exp, REAL)
        check("psi2_exp", self.psi2_exp, REAL)
        check("emp_loss", self.emp_loss, REAL, NONNEGATIVE)


@dataclass(frozen=True)
class BoundReport:
    """All bound components for one (n, lambda, delta, seed) configuration."""

    n: int
    seed: int
    lambda_: float
    delta: float
    kl: float
    psi_hat: float
    r_n: float
    post_emp_loss: float
    total: float
    z_hat: float
    n_samples: int


def psi1_exponent(
    lambda_: float, n: int, l_ell: float, data: DataConstants, gh: GainPair
) -> float:
    """Exponent of the mixing moment bound (exp deferred to pooling).

        (2 * lambda^2 * l_ell^2 / n) * (b_q*(g+h) + theta_bar*g)^2
    """
    check("lambda_", lambda_, REAL, POSITIVE)
    check("n", n, INT, POSITIVE)
    inner = data.b_q * (gh.g + gh.h) + data.theta_bar * gh.g
    return (2.0 * lambda_ * lambda_ * l_ell * l_ell / n) * inner * inner


def psi2_exponent(
    lambda_: float,
    n: int,
    l_ell: float,
    c: StabilityConstants,
    b_q: float,
    gh: GainPair,
    s0_norm: float,
) -> float:
    """Exponent of the initial-state transient moment bound.

        (2 * lambda * l_ell * c / n) * transient_bracket(c, gh, b_q, s0_norm)

    2*lambda times transient_gap_bound: the log-MGF bound, at s = 2*lambda,
    of a term bounded deterministically.
    """
    check("lambda_", lambda_, REAL, POSITIVE)
    check("n", n, INT, POSITIVE)
    return (2.0 * lambda_ * l_ell * c.c / n) * transient_bracket(c, gh, b_q, s0_norm)


def pooled_psi(psi1: np.ndarray, psi2: np.ndarray) -> float:
    """Pooled moment term: half the sum of the two log-mean-exp aggregates."""
    return 0.5 * (log_mean_exp(psi1) + log_mean_exp(psi2))


def psi_hat(samples: list[SampleRecord]) -> float:
    """pooled_psi over the exponents of a list of sample records."""
    if not samples:
        raise ValueError("sample set is empty")
    return pooled_psi(
        np.array([r.psi1_exp for r in samples]), np.array([r.psi2_exp for r in samples])
    )


def gibbs_log_estimates(
    log_beta: np.ndarray, losses: np.ndarray
) -> tuple[float, float, float]:
    """Importance estimates (z_hat, kl, post_emp_loss) from prior-cloud log-weights.

    With m = max(log_beta) and w = exp(log_beta - m), whose largest entry is 1:

        z_hat         = 1 / mean(exp(log_beta))     (inf where that overflows)
        kl            = sum(w*(log_beta - m))/sum(w) - ln(mean(w))
        post_emp_loss = sum(w*loss)/sum(w)

    Monte-Carlo noise can push the KL estimate slightly negative at finite
    sample counts; it is clamped at zero with a warning.
    """
    log_beta = np.asarray(log_beta, dtype=float)
    losses = np.asarray(losses, dtype=float)
    if log_beta.shape != losses.shape:
        raise ValueError("weights and losses must be arrays of equal shape")
    shift, w = shifted_exp(log_beta)
    sum_w = float(np.sum(w))
    log_mean_w = math.log(sum_w / w.size)
    kl = float(np.sum(w * (log_beta - shift))) / sum_w - log_mean_w
    if kl < 0.0:
        warnings.warn(
            f"KL estimate {kl:.3e} is negative (Monte-Carlo noise); clamping to 0",
            stacklevel=2,
        )
        kl = 0.0
    try:
        z_hat = math.exp(-(shift + log_mean_w))
    except OverflowError:
        z_hat = math.inf
    post_emp_loss = float(np.sum(w * losses)) / sum_w
    return z_hat, kl, post_emp_loss


def gibbs_estimates(beta: np.ndarray, losses: np.ndarray) -> tuple[float, float, float]:
    """gibbs_log_estimates from strictly positive raw weights ``beta``."""
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0.0):
        raise ValueError("all weights must be strictly positive")
    return gibbs_log_estimates(np.log(beta), losses)


def pac_bound(lambda_: float, delta: float, kl: float, psi_hat_val: float) -> float:
    """Gap bound r_n = (kl + ln(1/delta) + psi_hat) / lambda."""
    check("lambda_", lambda_, REAL, POSITIVE)
    check("delta", delta, REAL, CONFIDENCE, error=InvalidConfidenceError)
    # -ln(delta), not ln(1/delta): 1/delta overflows for a subnormal delta.
    return (kl - math.log(delta) + psi_hat_val) / lambda_
