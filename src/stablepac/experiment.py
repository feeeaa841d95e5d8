"""End-to-end synthetic benchmark: data generation, prior sampling, bound evaluation.

The benchmark uses a fixed two-state generator with ReLU state updates and a
tanh output that emits a (label, input) pair per step, driven by truncated
Gaussian noise.  Predictors share the generator's shape; all 14 weights
including the initial state form the parameter vector.  The bound is
evaluated at every n of the grid from a fresh prior sample cloud per seed,
drawn by Metropolis-Hastings from a stability-truncated Gaussian prior; the
cloud is certified once and simulated as whole arrays, one entry per sample,
and one simulation pass gives its losses on every data prefix.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bound import (
    BoundReport,
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

# Cap on the (steps, samples) buffer of tanh outputs in the cloud loss loop.
_LOSS_CHUNK_ELEMENTS = 1 << 14

_RELU = activation("relu")
_TANH = activation("tanh")

# The benchmark's predictors are scored by squared error.
_SQUARE_LOSS = LossSpec(kind="square")

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


def _require_int(name: str, value) -> None:
    # A count such as 5.7 must not be truncated silently; bool is an Integral
    # too, but true/false for a count is a typo.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _require_real(name: str, value) -> None:
    # A string or null would otherwise fail in a comparison that names no key.
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ChainSettings:
    """Per-cell Metropolis-Hastings settings; steps are derived from n_f."""

    proposal_std: float = 0.05
    burn_in: int = 500
    thin: int = 1
    base_seed: int = 0

    def __post_init__(self):
        for name in ("burn_in", "thin", "base_seed"):
            _require_int(f"chain.{name}", getattr(self, name))
        _require_real("chain.proposal_std", self.proposal_std)
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
    e_inf: float = 1.27
    e_std: float = 1.0
    tau_max: float = 0.995

    def __post_init__(self):
        if not isinstance(self.n_grid, (tuple, list)):
            raise ConfigError(f"n_grid must be a list of integers, got {self.n_grid!r}")
        if not isinstance(self.chain, ChainSettings):
            raise ConfigError(f"chain must be an object, got {self.chain!r}")
        for n in self.n_grid:
            _require_int("n_grid entry", n)
        _require_int("n_seeds", self.n_seeds)
        _require_int("n_f", self.n_f)
        for name in ("prior_sigma2", "delta", "e_inf", "e_std", "tau_max"):
            _require_real(name, getattr(self, name))
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
        else:
            _require_real("lambda_rule", self.lambda_rule)
            if self.lambda_rule <= 0:
                raise ConfigError("fixed lambda must be positive")
        if not 0.0 < self.delta <= 0.5:
            raise ConfigError("delta must lie in (0, 0.5]")
        if self.n_f < 1:
            raise ConfigError("n_f must be positive")
        if not 0.0 < self.tau_max < 1.0:
            raise ConfigError("tau_max must lie in (0, 1)")
        if self.e_inf <= 0 or self.e_std <= 0:
            raise ConfigError("e_inf and e_std must be positive")

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
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be an object, got {doc!r}")
        doc = dict(doc)
        try:
            if isinstance(doc.get("chain"), dict):
                doc["chain"] = ChainSettings(**doc["chain"])
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
    # Distinct deterministic seed per (base seed, data seed, n) while the data
    # seed and n stay below the multiplier; base seed 0 gives
    # seed * 1_000_003 + n.  A seed's cloud is drawn with n = n_max, the seed
    # of its largest cell when every cell drew its own cloud.
    return (base_seed * 1_000_003 + seed) * 1_000_003 + n


def _batch_empirical_losses(
    thetas: np.ndarray, inputs: np.ndarray, labels: np.ndarray, ns: Sequence[int]
) -> np.ndarray:
    """Mean squared losses of every predictor in the cloud on each data prefix.

    Row k holds the mean loss over the first ``ns[k]`` steps, for ascending
    ``ns``.  One pass to the largest n serves every row: the running sums are
    divided by n as the pass reaches step n, so each row equals a separate
    pass over that prefix bit for bit.  Pure elementwise arithmetic on arrays
    over the cloud: deterministic and independent of BLAS threading.  Agrees
    with per-sample empirical_loss.

    The cloud advances as one (3, m) pre-activation array whose rows are the
    next s0, the next s1 and the output, each element summed in the order
    ``((k_s0*s0 + k_s1*s1) + k_x*x) + k_1``.  The tanh outputs of a chunk of
    steps are kept, and their squared errors are added to the sums row by row
    afterwards, in time order.
    """
    if (
        not ns
        or ns[0] < 1
        or ns[-1] > inputs.shape[0]
        or any(a >= b for a, b in zip(ns, ns[1:]))
    ):
        raise ValueError(
            f"prefix lengths {ns} must ascend strictly within 1..{inputs.shape[0]}"
        )
    m = thetas.shape[0]
    n_max = ns[-1]
    x = inputs[:n_max, 0]
    y = labels[:n_max, 0]
    # Rows (next s0, next s1, output) of the coefficients of s0, s1, x and 1.
    k_s0 = thetas[:, [0, 2, 8]].T.copy()
    k_s1 = thetas[:, [1, 3, 9]].T.copy()
    k_x = thetas[:, [4, 5, 10]].T.copy()
    k_1 = thetas[:, [6, 7, 11]].T.copy()
    state = thetas[:, 12:14].T.copy()
    s0, s1 = state
    pre = np.empty((3, m))
    pre_s, pre_y = pre[:2], pre[2]
    term = np.empty((3, m))
    rows = max(1, _LOSS_CHUNK_ELEMENTS // max(m, 1))
    yhat = np.empty((rows, m))
    acc = np.zeros(m)
    means = np.empty((len(ns), m))
    k = 0
    for start in range(0, n_max, rows):
        x_chunk = x[start : start + rows]
        chunk = yhat[: x_chunk.shape[0]]
        for yhat_t, x_t in zip(chunk, x_chunk.tolist()):
            np.multiply(k_s0, s0, out=pre)
            np.multiply(k_s1, s1, out=term)
            pre += term
            np.multiply(k_x, x_t, out=term)
            pre += term
            pre += k_1
            np.maximum(pre_s, 0.0, out=state)
            np.tanh(pre_y, out=yhat_t)
        chunk -= y[start : start + rows, None]
        chunk *= chunk
        for t, sq_t in enumerate(chunk, start + 1):
            acc += sq_t
            if t == ns[k]:
                # The last snapshot is taken at the final step, n_max.
                np.divide(acc, t, out=means[k])
                k += 1
    return means


def certify_cloud(
    thetas: np.ndarray, dc: DataConstants, tau_max: float
) -> tuple[StabilityConstants, GainPair, np.ndarray, np.ndarray]:
    """rnn_constants, gain_pair, loss_lipschitz and ||s0||, over arrays.

    Returns ``(constants, gains, l_ell, s0_norm)``, one array entry per
    sample.  None depends on lambda or n, so one call serves a seed's whole n
    grid.  B and C of the benchmark predictor are vectors and D is a scalar,
    so their spectral norms are Euclidean norms and an absolute value;
    ||A||_2 has a closed form.  Every sample must satisfy tau < tau_max.
    """
    a = thetas[:, 0:4].T
    tau = _RELU.lipschitz * spectral_norm_2x2(a[0], a[1], a[2], a[3])
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
    l_ell = loss_lipschitz(_SQUARE_LOSS, dc, gh)
    return consts, gh, l_ell, np.hypot(thetas[:, 12], thetas[:, 13])


def run_seed(cfg: ExperimentConfig, seed: int, data: Trajectory) -> list[BoundReport]:
    """Evaluate the bound at every n of the grid on prefixes of one seed's data.

    One prior cloud serves every n: the prior depends on neither the data nor
    n, so each per-n bound stays valid.  The cloud's chain seed is the cell
    seed of the largest n.  The cloud is certified and simulated once; only
    the moment exponents and the Gibbs reweighting depend on n.
    """
    n_max = cfg.n_grid[-1]
    if data.length < n_max:
        raise ValueError(f"data has {data.length} rows, need at least {n_max}")
    chain_cfg = ChainConfig(
        steps=cfg.chain.burn_in + cfg.n_f * cfg.chain.thin,
        burn_in=cfg.chain.burn_in,
        thin=cfg.chain.thin,
        proposal_std=cfg.chain.proposal_std,
        seed=_cell_chain_seed(cfg.chain.base_seed, seed, n_max),
    )
    thetas = mh_sample(
        stability_truncated_log_prior(cfg.prior_sigma2, cfg.tau_max),
        np.zeros(PARAM_DIM),
        chain_cfg,
    ).samples
    dc = generator_data_constants(build_reference_generator(), cfg.e_inf)
    consts, gh, l_ell, s0_norm = certify_cloud(thetas, dc, cfg.tau_max)
    loss_rows = _batch_empirical_losses(thetas, data.inputs, data.outputs, cfg.n_grid)
    reports = []
    for n, losses in zip(cfg.n_grid, loss_rows):
        lambda_ = cfg.lambda_for(n)
        ph = pooled_psi(
            psi1_exponent(lambda_, n, l_ell, dc, gh),
            psi2_exponent(lambda_, n, l_ell, consts, dc.b_q, gh, s0_norm),
        )
        beta = gibbs_weights(losses, lambda_)
        z_hat, kl, post_emp_loss = gibbs_estimates(beta, losses)
        r_n = pac_bound(lambda_, cfg.delta, kl, ph)
        reports.append(
            BoundReport(
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
        )
    return reports


def run_experiment(
    cfg: ExperimentConfig, progress: Callable[[str], None] | None = None
) -> list[BoundReport]:
    """Evaluate the bound over every (seed, n) cell in deterministic order.

    One data realisation per seed, sliced to prefixes for each n; a fresh
    prior cloud is drawn per seed with a seed-specific chain seed.
    """
    n_max = cfg.n_grid[-1]
    reports = []
    for seed in range(cfg.n_seeds):
        data = generate_dataset(seed, n_max, cfg.e_std, cfg.e_inf)
        for report in run_seed(cfg, seed, data):
            reports.append(report)
            if progress is not None:
                progress(
                    f"seed={seed} n={report.n} total={report.total:.4f} "
                    f"(loss={report.post_emp_loss:.4f} r_n={report.r_n:.4f})"
                )
    return reports


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
