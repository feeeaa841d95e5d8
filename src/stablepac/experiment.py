"""End-to-end synthetic benchmark: data generation, prior sampling, bound evaluation.

The benchmark uses a fixed two-state generator with ReLU state updates and a
tanh output that emits a (label, input) pair per step, driven by truncated
Gaussian noise.  Predictors share the generator's shape; all 14 weights
including the initial state form the parameter vector.  For every (seed, n)
cell the bound is evaluated from a fresh prior sample cloud drawn by
Metropolis-Hastings from a stability-truncated Gaussian prior; the cloud is
certified and simulated as whole arrays, one entry per sample.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .bound import (
    BoundReport,
    SampleRecord,
    gibbs_estimates,
    gibbs_weights,
    pac_bound,
    pooled_psi,
    psi1_exponent,
    psi2_exponent,
)
from .certify import GainPair, StabilityConstants, gain_pair, rnn_constants
from .dynsys import (
    RnnSystem,
    Trajectory,
    activation,
    burn_in_length,
    save_model,
    save_trajectory,
    simulate,
)
from .errors import ConfigError
from .loss import LossSpec, loss_lipschitz
from .mcmc import ChainConfig, mh_sample
from .mixing import DataConstants, generator_data_constants
from .numerics import seeded_rng, spectral_norm, spectral_norm_2x2, truncated_gaussian

# Parameter vector layout of the benchmark predictor (two states, scalar
# input and output, ReLU/tanh): A row-major (4), B (2), b_s (2), C (2),
# D (1), b_y (1), s0 (2).
PARAM_DIM = 14

# Steady-state approximation tolerance used when generating data.
_DATA_BURN_IN_TOL = 1e-9

_RELU = activation("relu")
_TANH = activation("tanh")

# Squared error of the all-zero predictor against tanh-bounded labels cannot
# exceed this level; the bound is vacuous above it.
VACUITY_LEVEL = 1.0


def build_reference_generator() -> RnnSystem:
    """The fixed randomly-drawn generator behind the synthetic benchmark."""
    return RnnSystem(
        a=np.array([[0.52, 0.23], [0.23, -0.52]]),
        b=np.array([[-0.82, -0.45], [0.36, -0.96]]),
        b_s=np.array([0.38, -0.06]),
        c=np.array([[0.05, -0.10], [-0.11, 0.01]]),
        d=np.array([[0.09, -0.11], [0.05, -0.16]]),
        b_y=np.array([-0.53, -0.79]),
        sigma_f=_RELU,
        sigma_g=_TANH,
    )


def generate_dataset(
    seed: int, n: int, e_std: float = 1.0, e_inf: float = 1.27
) -> Trajectory:
    """Synthesize n steps of (input, label) data from the reference generator.

    Noise is truncated Gaussian with |e| <= e_inf coordinatewise; the
    generator runs from the zero state through a burn-in prefix so the
    recorded window approximates the steady-state output process.  The first
    output coordinate is the label y(t), the second the predictor input x(t).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    gen = build_reference_generator()
    burn = burn_in_length(rnn_constants(gen), 0.0, _DATA_BURN_IN_TOL)
    rng = seeded_rng(seed)
    noise = truncated_gaussian(rng, e_std, e_inf, (burn + n) * gen.n_v).reshape(
        burn + n, gen.n_v
    )
    _, outputs = simulate(gen, np.zeros(gen.n_s), noise)
    window = outputs[burn:]
    return Trajectory(inputs=window[:, 1:2], outputs=window[:, 0:1])


def predictor_from_theta(theta: np.ndarray) -> tuple[RnnSystem, np.ndarray]:
    """Unflatten a 14-vector into the benchmark predictor and its initial state."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (PARAM_DIM,):
        raise ValueError(f"parameter vector must have shape ({PARAM_DIM},)")
    sys = RnnSystem(
        a=theta[0:4].reshape(2, 2),
        b=theta[4:6].reshape(2, 1),
        b_s=theta[6:8],
        c=theta[8:10].reshape(1, 2),
        d=theta[10:11].reshape(1, 1),
        b_y=theta[11:12],
        sigma_f=_RELU,
        sigma_g=_TANH,
    )
    return sys, theta[12:14]


def theta_from_predictor(sys: RnnSystem, s0: np.ndarray) -> np.ndarray:
    """Flatten a benchmark-shaped predictor back into its 14-vector (exact round trip)."""
    if (sys.n_s, sys.n_v, sys.n_y) != (2, 1, 1):
        raise ValueError("predictor must have shape n_s=2, n_v=1, n_y=1")
    return np.concatenate(
        [
            sys.a.reshape(4),
            sys.b.reshape(2),
            sys.b_s,
            sys.c.reshape(2),
            sys.d.reshape(1),
            sys.b_y,
            np.asarray(s0, dtype=float),
        ]
    )


@dataclass(frozen=True)
class ChainSettings:
    """Per-cell Metropolis-Hastings settings; steps are derived from n_f."""

    proposal_std: float = 0.05
    burn_in: int = 500
    thin: int = 1
    base_seed: int = 0

    def __post_init__(self):
        if self.proposal_std <= 0 or self.burn_in < 0 or self.thin < 1:
            raise ConfigError("invalid chain settings")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full benchmark configuration; defaults reproduce the reference setup."""

    n_grid: tuple[int, ...] = (5, 9, 20, 50, 100, 200, 500, 1000)
    n_seeds: int = 10
    prior_sigma2: float = 0.02
    lambda_rule: str | float = "sqrt_n"
    delta: float = 0.025
    n_f: int = 5000
    chain: ChainSettings = field(default_factory=ChainSettings)
    loss: LossSpec = field(default_factory=lambda: LossSpec(kind="square"))
    e_inf: float = 1.27
    e_std: float = 1.0
    tau_max: float = 0.995

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(n < 1 for n in grid) or list(grid) != sorted(set(grid)):
            raise ConfigError("n_grid must be a nonempty ascending list of positive ints")
        object.__setattr__(self, "n_grid", grid)
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be positive")
        if self.prior_sigma2 <= 0:
            raise ConfigError("prior_sigma2 must be positive")
        if isinstance(self.lambda_rule, str):
            if self.lambda_rule != "sqrt_n":
                raise ConfigError("lambda_rule must be 'sqrt_n' or a positive number")
        elif not self.lambda_rule > 0:
            raise ConfigError("fixed lambda must be positive")
        if not 0.0 < self.delta <= 0.5:
            raise ConfigError("delta must lie in (0, 0.5]")
        if self.n_f < 1:
            raise ConfigError("n_f must be positive")
        if not 0.0 < self.tau_max < 1.0:
            raise ConfigError("tau_max must lie in (0, 1)")
        if self.e_inf <= 0 or self.e_std <= 0:
            raise ConfigError("e_inf and e_std must be positive")
        if self.loss.kind != "square":
            raise ConfigError(
                f"loss kind {self.loss.kind!r} is not supported by the benchmark; "
                "use 'square'"
            )

    def lambda_for(self, n: int) -> float:
        if self.lambda_rule == "sqrt_n":
            return math.sqrt(n)
        return float(self.lambda_rule)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["n_grid"] = list(self.n_grid)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        try:
            if "chain" in doc and isinstance(doc["chain"], dict):
                doc["chain"] = ChainSettings(**doc["chain"])
            if "loss" in doc and isinstance(doc["loss"], dict):
                doc["loss"] = LossSpec(**doc["loss"])
            if "n_grid" in doc:
                doc["n_grid"] = tuple(doc["n_grid"])
            return cls(**doc)
        except TypeError as exc:
            # Unknown or misspelled keys.
            raise ConfigError(f"invalid config: {exc}") from exc


def stability_truncated_log_prior(
    sigma2: float, tau_max: float
) -> Callable[[np.ndarray], float]:
    """Gaussian log-prior that is -inf wherever the predictor is not certifiable.

    The contraction factor of the benchmark predictor is ||A||_2 (ReLU has
    unit Lipschitz constant), so the support is truncated to tau < tau_max.
    """

    def log_prior(theta: np.ndarray) -> float:
        tau = spectral_norm(theta[0:4].reshape(2, 2))
        if tau >= tau_max:
            return -math.inf
        return -0.5 * float(theta @ theta) / sigma2

    return log_prior


def _cell_chain_seed(base_seed: int, seed: int, n: int) -> int:
    # Distinct deterministic seed per (data seed, n) cell.
    return base_seed * 1_000_003 + seed * 1_000_003 + n


def _batch_empirical_losses(
    thetas: np.ndarray, inputs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Mean squared losses of every predictor in the cloud, simulated in lockstep.

    Pure elementwise arithmetic on (n_samples,) arrays: deterministic and
    independent of BLAS threading.  Agrees with per-sample empirical_loss.
    """
    m = thetas.shape[0]
    x = inputs[:, 0]
    y = labels[:, 0]
    a00, a01, a10, a11 = thetas[:, 0], thetas[:, 1], thetas[:, 2], thetas[:, 3]
    bb0, bb1 = thetas[:, 4], thetas[:, 5]
    c0, c1 = thetas[:, 6], thetas[:, 7]
    w0, w1 = thetas[:, 8], thetas[:, 9]
    dd = thetas[:, 10]
    by = thetas[:, 11]
    s0 = thetas[:, 12].copy()
    s1 = thetas[:, 13].copy()
    acc = np.zeros(m)
    for t in range(x.shape[0]):
        yhat = np.tanh(w0 * s0 + w1 * s1 + dd * x[t] + by)
        diff = yhat - y[t]
        acc += diff * diff
        p0 = np.maximum(a00 * s0 + a01 * s1 + bb0 * x[t] + c0, 0.0)
        s1 = np.maximum(a10 * s0 + a11 * s1 + bb1 * x[t] + c1, 0.0)
        s0 = p0
    return acc / x.shape[0]


@dataclass(frozen=True)
class CloudCertificate:
    """Certificates and bound terms of a parameter cloud, one array entry per sample."""

    constants: StabilityConstants
    gh: GainPair
    s0_norm: np.ndarray
    l_ell: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray


def _cloud_tau(thetas: np.ndarray) -> np.ndarray:
    # Contraction factor Lip(sigma_f) * ||A||_2 of every predictor in the cloud.
    a = thetas[:, 0:4].T
    return _RELU.lipschitz * spectral_norm_2x2(a[0], a[1], a[2], a[3])


def certify_cloud(
    thetas: np.ndarray,
    dc: DataConstants,
    lambda_: float,
    n: int,
    loss_spec: LossSpec,
    tau_max: float,
) -> CloudCertificate:
    """rnn_constants, gain_pair, loss_lipschitz and both moment exponents, over arrays.

    B and C of the benchmark predictor are vectors and D is a scalar, so their
    spectral norms are Euclidean norms and an absolute value; ||A||_2 has a
    closed form.  Every sample must satisfy tau < tau_max.
    """
    tau = _cloud_tau(thetas)
    bad = np.flatnonzero(tau >= tau_max)
    if bad.size:
        i = int(bad[0])
        raise RuntimeError(
            f"retained sample {i} has tau={tau[i]:.6f} >= tau_max={tau_max}; "
            "prior truncation failed"
        )
    consts = StabilityConstants(
        c=1.0,
        tau=tau,
        l_v=_RELU.lipschitz * np.hypot(thetas[:, 4], thetas[:, 5]),
        l_gs=_TANH.lipschitz * np.hypot(thetas[:, 8], thetas[:, 9]),
        l_gv=_TANH.lipschitz * np.abs(thetas[:, 10]),
    )
    gh = gain_pair(consts)
    l_ell = loss_lipschitz(loss_spec, dc, gh)
    s0_norm = np.hypot(thetas[:, 12], thetas[:, 13])
    return CloudCertificate(
        constants=consts,
        gh=gh,
        s0_norm=s0_norm,
        l_ell=l_ell,
        psi1=psi1_exponent(lambda_, n, l_ell, dc, gh),
        psi2=psi2_exponent(lambda_, n, l_ell, consts, dc.b_q, gh, s0_norm),
    )


def evaluate_cloud(
    thetas: np.ndarray,
    data: Trajectory,
    dc: DataConstants,
    lambda_: float,
    n: int,
    loss_spec: LossSpec,
    tau_max: float,
) -> tuple[np.ndarray, CloudCertificate]:
    """Empirical losses and certificates of every sampled predictor."""
    if loss_spec.kind != "square":
        raise ValueError("the benchmark cloud evaluator supports square loss only")
    cert = certify_cloud(thetas, dc, lambda_, n, loss_spec, tau_max)
    return _batch_empirical_losses(thetas, data.inputs, data.outputs), cert


def run_cell(
    cfg: ExperimentConfig, seed: int, n: int, data: Trajectory
) -> BoundReport:
    """Evaluate the bound for one (seed, n) cell on the given data prefix."""
    if data.length < n:
        raise ValueError(f"data has {data.length} rows, need at least {n}")
    prefix = Trajectory(inputs=data.inputs[:n], outputs=data.outputs[:n])
    lambda_ = cfg.lambda_for(n)
    chain_cfg = ChainConfig(
        steps=cfg.chain.burn_in + cfg.n_f * cfg.chain.thin,
        burn_in=cfg.chain.burn_in,
        thin=cfg.chain.thin,
        proposal_std=cfg.chain.proposal_std,
        seed=_cell_chain_seed(cfg.chain.base_seed, seed, n),
    )
    chain = mh_sample(
        stability_truncated_log_prior(cfg.prior_sigma2, cfg.tau_max),
        np.zeros(PARAM_DIM),
        chain_cfg,
    )
    dc = generator_data_constants(build_reference_generator(), cfg.e_inf)
    losses, cert = evaluate_cloud(
        chain.samples, prefix, dc, lambda_, n, cfg.loss, cfg.tau_max
    )
    beta = gibbs_weights(losses, lambda_)
    z_hat, kl, post_emp_loss = gibbs_estimates(beta, losses)
    ph = pooled_psi(cert.psi1, cert.psi2)
    r_n = pac_bound(lambda_, cfg.delta, kl, ph)
    return BoundReport(
        n=n,
        seed=seed,
        lambda_=lambda_,
        delta=cfg.delta,
        kl=kl,
        psi_hat=ph,
        r_n=r_n,
        post_emp_loss=post_emp_loss,
        total=post_emp_loss + r_n,
        z_hat=z_hat,
        n_samples=losses.size,
    )


def run_experiment(
    cfg: ExperimentConfig, progress: Callable[[str], None] | None = None
) -> list[BoundReport]:
    """Evaluate the bound over every (seed, n) cell in deterministic order.

    One data realisation per seed, sliced to prefixes for each n; a fresh
    prior cloud is drawn per cell with a cell-specific chain seed.
    """
    n_max = cfg.n_grid[-1]
    reports = []
    for seed in range(cfg.n_seeds):
        data = generate_dataset(seed, n_max, cfg.e_std, cfg.e_inf)
        for n in cfg.n_grid:
            report = run_cell(cfg, seed, n, data)
            reports.append(report)
            if progress is not None:
                progress(
                    f"seed={seed} n={n} total={report.total:.4f} "
                    f"(loss={report.post_emp_loss:.4f} r_n={report.r_n:.4f})"
                )
    return reports


def box_search_records(
    low: np.ndarray,
    high: np.ndarray,
    n_draws: int,
    seed: int,
    dc: DataConstants,
    lambda_: float,
    n: int,
    loss_spec: LossSpec,
    tau_max: float,
) -> list[SampleRecord]:
    """Uniform draws from a parameter box, certified and turned into records.

    Supplements a prior cloud when estimating the rate-constant suprema: the
    result is still only a sampled lower bound of the true supremum, never a
    certified one.  Draws outside the stability region are skipped; empirical
    losses are not evaluated (set to zero).
    """
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    if low.shape != (PARAM_DIM,) or high.shape != (PARAM_DIM,):
        raise ValueError(f"box bounds must have shape ({PARAM_DIM},)")
    if np.any(low > high):
        raise ValueError("box lower bounds exceed upper bounds")
    thetas = seeded_rng(seed).uniform(low, high, size=(n_draws, PARAM_DIM))
    tau = _cloud_tau(thetas)
    kept = thetas[(tau < 1.0) & (tau < tau_max)]
    cert = certify_cloud(kept, dc, lambda_, n, loss_spec, tau_max)
    c, gh = cert.constants, cert.gh
    return [
        SampleRecord(
            theta=kept[i],
            s0_norm=float(cert.s0_norm[i]),
            constants=StabilityConstants(
                c=1.0,
                tau=float(c.tau[i]),
                l_v=float(c.l_v[i]),
                l_gs=float(c.l_gs[i]),
                l_gv=float(c.l_gv[i]),
            ),
            gh=GainPair(g=float(gh.g[i]), h=float(gh.h[i])),
            l_ell=float(cert.l_ell[i]),
            emp_loss=0.0,
            psi1_exp=float(cert.psi1[i]),
            psi2_exp=float(cert.psi2[i]),
        )
        for i in range(kept.shape[0])
    ]


# ---------------------------------------------------------------------------
# Report files

REPORT_COLUMNS = [
    "N",
    "seed",
    "lambda",
    "delta",
    "kl",
    "psi_hat",
    "r_N",
    "post_emp_loss",
    "total_bound",
    "z_hat",
    "n_samples",
]

SUMMARY_COLUMNS = [
    "N",
    "total_median",
    "total_min",
    "total_max",
    "post_emp_loss_median",
    "post_emp_loss_min",
    "post_emp_loss_max",
    "vacuity_level",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_curves(reports: list[BoundReport], out_dir: str) -> tuple[str, str]:
    """Write the bound-report CSV and the per-n summary CSV; returns their paths."""
    if not reports:
        raise ValueError("no reports to emit")
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "bound_reports.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    try:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(REPORT_COLUMNS) + "\n")
            for r in sorted(reports, key=lambda r: (r.seed, r.n)):
                fh.write(
                    ",".join(
                        [
                            str(r.n),
                            str(r.seed),
                            _fmt(r.lambda_),
                            _fmt(r.delta),
                            _fmt(r.kl),
                            _fmt(r.psi_hat),
                            _fmt(r.r_n),
                            _fmt(r.post_emp_loss),
                            _fmt(r.total),
                            _fmt(r.z_hat),
                            str(r.n_samples),
                        ]
                    )
                    + "\n"
                )
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(SUMMARY_COLUMNS) + "\n")
            for n in sorted({r.n for r in reports}):
                totals = np.array(sorted(r.total for r in reports if r.n == n))
                posts = np.array(sorted(r.post_emp_loss for r in reports if r.n == n))
                fh.write(
                    ",".join(
                        [
                            str(n),
                            _fmt(np.median(totals)),
                            _fmt(totals[0]),
                            _fmt(totals[-1]),
                            _fmt(np.median(posts)),
                            _fmt(posts[0]),
                            _fmt(posts[-1]),
                            _fmt(VACUITY_LEVEL),
                        ]
                    )
                    + "\n"
                )
    except OSError as exc:
        raise OSError(f"failed writing bound curves under {out_dir!r}: {exc}") from exc
    return report_path, summary_path


def write_outputs(
    cfg: ExperimentConfig, reports: list[BoundReport], out_dir: str
) -> None:
    """Write the generator model, per-seed trajectories, and the report CSVs."""
    os.makedirs(out_dir, exist_ok=True)
    save_model(build_reference_generator(), os.path.join(out_dir, "generator.json"))
    n_max = cfg.n_grid[-1]
    for seed in range(cfg.n_seeds):
        traj = generate_dataset(seed, n_max, cfg.e_std, cfg.e_inf)
        save_trajectory(traj, os.path.join(out_dir, f"trajectory_seed{seed}.csv"))
    emit_curves(reports, out_dir)
