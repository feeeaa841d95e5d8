"""Assembly of the generalisation-gap bound from a prior sample cloud.

Per sampled parameter the two moment exponents are stored raw (before
exponentiation) and pooled with a stabilised log-mean-exp, so the bound stays
finite even when individual exponents reach 1e4.  The exponent formulas work
elementwise, so one call covers a whole cloud of per-sample constants.
Posterior quantities (KL divergence and posterior-expected empirical loss)
come from importance reweighting of the prior cloud with Gibbs weights, which
avoids sampling the posterior altogether.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .certify import GainPair, StabilityConstants
from .errors import InvalidConfidenceError, NotStableError
from .mixing import DataConstants
from .numerics import log_mean_exp


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
        if not (math.isfinite(self.psi1_exp) and math.isfinite(self.psi2_exp)):
            raise ValueError("moment exponents must be finite")
        if self.emp_loss < 0:
            raise ValueError("empirical loss must be nonnegative")


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
    if lambda_ <= 0 or n < 1:
        raise ValueError("lambda must be positive and n >= 1")
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

        (2 * lambda * l_ell * c / n) * (2*b_q*h + s0_norm*l_gs/(1-tau))
    """
    if lambda_ <= 0 or n < 1:
        raise ValueError("lambda must be positive and n >= 1")
    if np.any(c.tau >= 1.0):
        raise NotStableError(f"tau = {c.tau} >= 1", value=float(np.max(c.tau)))
    inner = 2.0 * b_q * gh.h + s0_norm * c.l_gs / (1.0 - c.tau)
    return (2.0 * lambda_ * l_ell * c.c / n) * inner


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


def gibbs_weights(losses: np.ndarray, lambda_n: float) -> np.ndarray:
    """Importance weights beta_i = exp(-lambda_n * loss_i) of the Gibbs posterior."""
    if lambda_n <= 0:
        raise ValueError("lambda_n must be positive")
    losses = np.asarray(losses, dtype=float)
    if not np.all(np.isfinite(losses)):
        raise ValueError("losses must be finite")
    return np.exp(-lambda_n * losses)


def gibbs_estimates(
    beta: np.ndarray, losses: np.ndarray
) -> tuple[float, float, float]:
    """Importance estimates (z_hat, kl, post_emp_loss) from prior-cloud weights.

        z_hat         = 1 / mean(beta)
        kl            = ln(z_hat) + z_hat * mean(beta*ln(beta))
        post_emp_loss = mean(beta*loss) / mean(beta)

    Monte-Carlo noise can push the KL estimate slightly negative at finite
    sample counts; it is clamped at zero with a warning.
    """
    beta = np.asarray(beta, dtype=float)
    losses = np.asarray(losses, dtype=float)
    if beta.shape != losses.shape or beta.ndim != 1 or beta.size == 0:
        raise ValueError("beta and losses must be nonempty 1-d arrays of equal length")
    if np.any(beta <= 0.0):
        raise ValueError("all weights must be strictly positive")
    mean_beta = float(np.mean(beta))
    z_hat = 1.0 / mean_beta
    kl = math.log(z_hat) + z_hat * float(np.mean(beta * np.log(beta)))
    if kl < 0.0:
        warnings.warn(
            f"KL estimate {kl:.3e} is negative (Monte-Carlo noise); clamping to 0",
            stacklevel=2,
        )
        kl = 0.0
    post_emp_loss = float(np.mean(beta * losses)) / mean_beta
    return z_hat, kl, post_emp_loss


def pac_bound(lambda_: float, delta: float, kl: float, psi_hat_val: float) -> float:
    """Gap bound r_n = (kl + ln(1/delta) + psi_hat) / lambda."""
    if lambda_ <= 0:
        raise ValueError("lambda must be positive")
    if not 0.0 < delta <= 0.5:
        raise InvalidConfidenceError(f"delta must lie in (0, 0.5], got {delta}")
    return (kl + math.log(1.0 / delta) + psi_hat_val) / lambda_


def estimate_g1_g2(
    samples: list[SampleRecord], data: DataConstants
) -> tuple[float, float]:
    """Sample-maximum estimates of the two rate constants of the fixed-constant bound.

        g1 at theta = 2 * l_ell^2 * (b_q*(g+h) + theta_bar*g)^2
        g2 at theta = 2 * l_ell * c * (2*b_q*h + s0_norm*l_gs/(1-tau))

    These are maxima over the sampled cloud only, hence lower bounds of the
    true suprema over the parameter set.
    """
    if not samples:
        raise ValueError("sample set is empty")
    g1 = 0.0
    g2 = 0.0
    for r in samples:
        inner1 = data.b_q * (r.gh.g + r.gh.h) + data.theta_bar * r.gh.g
        g1 = max(g1, 2.0 * r.l_ell * r.l_ell * inner1 * inner1)
        inner2 = (
            2.0 * data.b_q * r.gh.h
            + r.s0_norm * r.constants.l_gs / (1.0 - r.constants.tau)
        )
        g2 = max(g2, 2.0 * r.l_ell * r.constants.c * inner2)
    return g1, g2
