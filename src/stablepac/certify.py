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
from dataclasses import dataclass, replace

import numpy as np

from .dynsys import RnnSystem
from .errors import InstabilityError, NotStableError, SingularCompositionError
from .numerics import check_finite_matrix, discrete_lyapunov, spectral_norm

# Floor used for tau when composing two memoryless blocks under the explicit
# opt-in flag; see series_compose.
_TAU_FLOOR = 1e-12


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


@dataclass(frozen=True)
class ContractionCheck:
    """Outcome of the contraction test; tau is reported either way."""

    ok: bool
    tau: float


def rnn_constants(sys: RnnSystem, l_v_scaling: str = "lipschitz") -> StabilityConstants:
    """Certificate of one affine-then-activation block.

    Requires Lip(sigma_f) * ||A||_2 < 1.  The input-to-state gain defaults to
    Lip(sigma_f) * ||B||_2; ``l_v_scaling="inverse_lipschitz"`` selects the
    alternative Lip(sigma_f)^-1 * ||B||_2 convention instead.
    """
    if l_v_scaling not in ("lipschitz", "inverse_lipschitz"):
        raise ValueError(f"unknown l_v_scaling {l_v_scaling!r}")
    rho_f = sys.sigma_f.lipschitz
    rho_g = sys.sigma_g.lipschitz
    tau = rho_f * spectral_norm(sys.a)
    if tau >= 1.0:
        raise NotStableError(
            f"Lip(sigma_f)*||A||_2 = {tau:.6f} >= 1: no contraction certificate",
            value=tau,
        )
    norm_b = spectral_norm(sys.b)
    l_v = rho_f * norm_b if l_v_scaling == "lipschitz" else norm_b / rho_f
    return StabilityConstants(
        c=1.0,
        tau=tau,
        l_v=l_v,
        l_gs=rho_g * spectral_norm(sys.c),
        l_gv=rho_g * spectral_norm(sys.d),
    )


def check_contraction(sys: RnnSystem) -> ContractionCheck:
    """Check Lip(sigma_f) * ||A||_2 < 1 and report the factor."""
    tau = sys.sigma_f.lipschitz * spectral_norm(sys.a)
    return ContractionCheck(ok=tau < 1.0, tau=tau)


def check_linear_lyapunov(a: np.ndarray, mu: float) -> np.ndarray | None:
    """Quadratic certificate P > 0 with a.T P a <= mu * P for the linear map a.

    Solves the Lyapunov equation for a/sqrt(mu); that succeeds exactly when
    the spectral radius squared is below mu.  Returns None when ``a`` is
    stable but no certificate exists at this ``mu``; raises when ``a`` itself
    has spectral radius >= 1.
    """
    a = check_finite_matrix(a, "a")
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    eye = np.eye(a.shape[0])
    try:
        p = discrete_lyapunov(a / math.sqrt(mu), eye)
    except InstabilityError:
        # Distinguish "no certificate at this mu" from genuine instability.
        discrete_lyapunov(a, eye)
        return None
    margin = mu * p - a.T @ p @ a
    if float(np.min(np.linalg.eigvalsh(0.5 * (margin + margin.T)))) < -1e-9:
        return None
    return p


def series_compose(
    c1: StabilityConstants, c2: StabilityConstants, allow_zero_tau: bool = False
) -> StabilityConstants:
    """Certificate of the series interconnection (block 1 feeds block 2).

    With t = max(tau1, tau2) and the peak gain G = -2 / (e * ln t):

        c_out    = sqrt(c1^2 * (1 + (G*l_v2*l_gs1)^2 / t) + c2^2)
        tau_out  = sqrt(t)
        l_v_out  = sqrt(l_v1^2 + (l_v2*G*max(l_gs1*l_v1, l_gv1))^2 / t^3)
        l_gs/l_gv of the composite are those of block 2.

    t = 0 makes G ill-defined; by default that is an error, and with
    ``allow_zero_tau`` the factor t is floored at 1e-12 instead.
    """
    t = max(c1.tau, c2.tau)
    if t == 0.0:
        if not allow_zero_tau:
            raise SingularCompositionError(
                "both contraction factors are zero; pass allow_zero_tau to "
                "compose with a floored factor"
            )
        t = _TAU_FLOOR
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


def _with_label_passthrough(pred: StabilityConstants) -> StabilityConstants:
    # Routing the label next to the predicted output adds a unit gain in
    # quadrature to the output-input Lipschitz constant.
    return replace(pred, l_gv=math.sqrt(pred.l_gv**2 + 1.0))


def full_generator_constants(
    gen: StabilityConstants, pred: StabilityConstants, allow_zero_tau: bool = False
) -> StabilityConstants:
    """Certificate of the composite that outputs (prediction, label) jointly.

    Generator in series with the predictor whose output map is augmented to
    also pass the label through.
    """
    return series_compose(gen, _with_label_passthrough(pred), allow_zero_tau)


@dataclass(frozen=True)
class HeuristicCheck:
    """Outcome of a sampled check: suggestive evidence, not a certificate."""

    ok: bool
    worst_ratio: float
    n_points: int


def check_metric_contraction_sampled(
    sys: RnnSystem,
    p: np.ndarray,
    mu: float,
    n_points: int = 1000,
    seed: int = 0,
    state_scale: float = 2.0,
    input_scale: float = 2.0,
) -> HeuristicCheck:
    """Sampled test of ||f(s1,v) - f(s2,v)||_P <= sqrt(mu) ||s1 - s2||_P.

    Evaluates the contraction ratio in the P-weighted norm on random state
    pairs and inputs.  A pass is heuristic evidence only: the property is
    checked on sampled points, not proven globally.
    """
    p = check_finite_matrix(p, "p")
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    target = math.sqrt(mu)
    for _ in range(n_points):
        s1 = rng.uniform(-state_scale, state_scale, size=sys.n_s)
        s2 = rng.uniform(-state_scale, state_scale, size=sys.n_s)
        v = rng.uniform(-input_scale, input_scale, size=sys.n_v)
        ds = s1 - s2
        denom = math.sqrt(float(ds @ p @ ds))
        if denom < 1e-12:
            continue
        f1 = sys.sigma_f(sys.a @ s1 + sys.b @ v + sys.b_s)
        f2 = sys.sigma_f(sys.a @ s2 + sys.b @ v + sys.b_s)
        df = f1 - f2
        worst = max(worst, math.sqrt(float(df @ p @ df)) / denom)
    return HeuristicCheck(ok=worst <= target, worst_ratio=worst, n_points=n_points)


def gain_pair(c: StabilityConstants) -> GainPair:
    """Derived gains g and h of a certificate (tau < 1 required), elementwise."""
    if np.any(c.tau >= 1.0):
        raise NotStableError(f"tau = {c.tau} >= 1", value=float(np.max(c.tau)))
    core = c.l_gs * c.l_v / (1.0 - c.tau)
    return GainPair(g=core + c.l_gv, h=core / (1.0 - c.tau))
