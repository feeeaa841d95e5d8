"""Data-distribution constants derived from a generator certificate.

The data process is assumed to be the steady-state output of a certified
generator driven by bounded i.i.d. noise.  Two scalars summarise it: b_q, an
amplitude bound on the stacked label/input vector, and theta_bar, a weak
dependence coefficient that is zero for i.i.d. data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .certify import StabilityConstants, gain_pair, rnn_constants
from .dynsys import RnnSystem
from .errors import NONNEGATIVE, POSITIVE, REAL, check


@dataclass(frozen=True)
class DataConstants:
    """Amplitude bound b_q, dependence coefficient theta_bar, noise bound e_inf."""

    b_q: float
    theta_bar: float
    e_inf: float

    def __post_init__(self):
        # e_inf first: data_constants' b_q and theta_bar are multiples of it.
        check("e_inf", self.e_inf, REAL, POSITIVE)
        check("b_q", self.b_q, REAL, POSITIVE)
        check("theta_bar", self.theta_bar, REAL, NONNEGATIVE)


def data_constants(gen: StabilityConstants, e_inf: float) -> DataConstants:
    """Distribution constants of the generator's steady-state output process.

        b_q       = 2 * e_inf * g
        theta_bar = 2 * e_inf * h

    where g and h are the generator's gain pair (see certify.gain_pair);
    DataConstants checks e_inf.
    """
    gh = gain_pair(gen)
    return DataConstants(b_q=2.0 * e_inf * gh.g, theta_bar=2.0 * e_inf * gh.h, e_inf=e_inf)


def saturation_bound(sys: RnnSystem) -> float | None:
    """Euclidean amplitude cap from a saturating output activation.

    tanh and sigmoid confine each output coordinate to (-1, 1), so the
    stacked output norm cannot exceed sqrt(n_y).  None for non-saturating
    activations; callers take the minimum with the formula bound.
    """
    if sys.sigma_g.kind in ("tanh", "sigmoid"):
        return math.sqrt(sys.n_y)
    return None


def generator_data_constants(sys: RnnSystem, e_inf: float) -> DataConstants:
    """Full pipeline for an explicit generator model, with the amplitude cap.

    Certifies the generator, evaluates data_constants, and replaces b_q by
    min(formula, saturation bound); the bound formulas are monotone in b_q,
    so the cap is always valid.
    """
    dc = data_constants(rnn_constants(sys), e_inf)
    cap = saturation_bound(sys)
    if cap is not None and cap < dc.b_q:
        dc = replace(dc, b_q=cap)
    return dc
