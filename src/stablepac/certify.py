"""Stability certificates for state-space blocks and their interconnections.

A certificate is the constant tuple (c, tau, l_v, l_gs, l_gv):

    c, tau   -- any trajectory approaches the steady-state one at rate c*tau^t
    l_v      -- input-to-state gain of the fading-memory inequality
    l_gs/l_gv -- Lipschitz constants of the output map in state / input

For affine-then-activation blocks the constants follow from the weight
spectral norms; series interconnection composes certificates in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynsys import RnnSystem
from .errors import NotStableError, SingularCompositionError
from .numerics import spectral_norm


@dataclass(frozen=True)
class StabilityConstants:
    """Certificate tuple governing every bound formula downstream.

    Fields are floats for one system, or equal-length arrays holding the
    certificates of a whole parameter cloud; validation is elementwise.
    """

    c: float
    tau: float
    l_v: float
    l_gs: float
    l_gv: float

    def __post_init__(self):
        if not np.all((self.c >= 1.0) & np.isfinite(self.c)):
            raise ValueError(f"c must be finite and >= 1, got {self.c}")
        if not np.all((self.tau >= 0.0) & (self.tau < 1.0)):
            raise ValueError(f"tau must lie in [0, 1), got {self.tau}")
        for name in ("l_v", "l_gs", "l_gv"):
            v = getattr(self, name)
            if not np.all((v >= 0.0) & np.isfinite(v)):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")


@dataclass(frozen=True)
class GainPair:
    """Derived output gains: g = l_gs*l_v/(1-tau) + l_gv, h = l_gs*l_v/(1-tau)^2.

    g bounds the steady output amplitude per unit of input amplitude; h is the
    memory-weighted variant that enters every transient and mixing bound.
    Floats or arrays, matching the certificate they derive from.
    """

    g: float
    h: float


def rnn_constants(sys: RnnSystem) -> StabilityConstants:
    """Certificate of one affine-then-activation block.

    Requires Lip(sigma_f) * ||A||_2 < 1; the input-to-state gain is
    Lip(sigma_f) * ||B||_2.
    """
    rho_f = sys.sigma_f.lipschitz
    rho_g = sys.sigma_g.lipschitz
    tau = rho_f * spectral_norm(sys.a)
    if tau >= 1.0:
        raise NotStableError(
            f"Lip(sigma_f)*||A||_2 = {tau:.6f} >= 1: no contraction certificate",
            value=tau,
        )
    return StabilityConstants(
        c=1.0,
        tau=tau,
        l_v=rho_f * spectral_norm(sys.b),
        l_gs=rho_g * spectral_norm(sys.c),
        l_gv=rho_g * spectral_norm(sys.d),
    )


def series_compose(c1: StabilityConstants, c2: StabilityConstants) -> StabilityConstants:
    """Certificate of the series interconnection (block 1 feeds block 2).

    With t = max(tau1, tau2) and the peak gain G = -2 / (e * ln t):

        c_out    = sqrt(c1^2 * (1 + (G*l_v2*l_gs1)^2 / t) + c2^2)
        tau_out  = sqrt(t)
        l_v_out  = sqrt(l_v1^2 + (l_v2*G*max(l_gs1*l_v1, l_gv1))^2 / t^3)
        l_gs/l_gv of the composite are those of block 2.

    t = 0 makes G ill-defined and raises SingularCompositionError.
    """
    t = max(c1.tau, c2.tau)
    if t == 0.0:
        raise SingularCompositionError("both contraction factors are zero")
    big_g = -2.0 / (math.e * math.log(t))
    c_out = math.sqrt(c1.c**2 * (1.0 + (big_g * c2.l_v * c1.l_gs) ** 2 / t) + c2.c**2)
    l_v_out = math.sqrt(
        c1.l_v**2 + (c2.l_v * big_g * max(c1.l_gs * c1.l_v, c1.l_gv)) ** 2 / t**3
    )
    return StabilityConstants(
        c=c_out,
        tau=math.sqrt(t),
        l_v=l_v_out,
        l_gs=c2.l_gs,
        l_gv=c2.l_gv,
    )


def gain_pair(c: StabilityConstants) -> GainPair:
    """Derived gains g and h of a certificate (tau < 1 required), elementwise."""
    if np.any(c.tau >= 1.0):
        raise NotStableError(f"tau = {c.tau} >= 1", value=float(np.max(c.tau)))
    core = c.l_gs * c.l_v / (1.0 - c.tau)
    return GainPair(g=core + c.l_gv, h=core / (1.0 - c.tau))
