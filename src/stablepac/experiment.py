"""End-to-end synthetic benchmark: data generation, prior sampling, bound evaluation.

The benchmark uses a fixed two-state generator with ReLU state updates and a
tanh output that emits a (label, input) pair per step, driven by truncated
Gaussian noise.  Predictors share the generator's shape; all 14 weights
including the initial state form the parameter vector.  The bound is
evaluated at every n of the grid from a fresh prior sample cloud per seed.
The prior is the zero-mean Gaussian truncated to the stability region
||A||_2 < tau_max; ``_prior_cloud`` samples it with one random-walk
Metropolis-Hastings chain per seed, started at theta = 0.

A seed's facts (``_seed_facts``) depend on neither n nor lambda: the cloud's
certificates, one entry per sample, and its losses on every data prefix.
One simulation pass over the cloud as sampled gives the losses on every
data prefix (``cloudloss.prefix_losses``), stepping each run of identical
consecutive rows once: a rejected proposal repeats the chain's state.  Each
loss is one running sum of its steps in time order, the rule of
``empirical_loss``, and a compiled step loop gets the numpy step loop's
losses bit for bit.  One reduction (``_reduce``) turns the facts into the
bound's terms at any sequence of (n, lambda) pairs.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .bound import (
    BoundReport,
    gibbs_log_estimates,
    pac_bound,
    pooled_psi,
    psi1_exponent,
    psi2_exponent,
)
from .certify import GainPair, StabilityConstants, block_constants, gain_pair, rnn_constants
from .cloudloss import PARAM_BLOCKS, PARAM_DIM, PARAM_SLICES, prefix_losses
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
from .mixing import DataConstants, generator_data_constants
from .numerics import seeded_rng, spectral_norm, spectral_norm_2x2, truncated_gaussian

# Steady-state approximation tolerance used when generating data.
_DATA_BURN_IN_TOL = 1e-9

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


# A config key's rules, each a (test, condition) pair, checked in order.  A
# count such as 5.7 must not be truncated silently, and a string or null must
# not fail in a comparison that names no key; bool is an Integral too, but
# true/false for a number is a typo.
_INT = (lambda v: not isinstance(v, bool) and isinstance(v, numbers.Integral), "an integer")
_REAL = (
    lambda v: not isinstance(v, bool) and isinstance(v, numbers.Real) and math.isfinite(v),
    "a finite number",
)
_POSITIVE = (lambda v: v > 0, "> 0")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")


def _key(default, *rules):
    """A config field with its default and the rules its values must pass."""
    return field(default=default, metadata={"rules": rules})


def _check(key: str, value, *rules) -> None:
    """Raise ConfigError naming the key and the value at the first rule it fails."""
    for test, condition in rules:
        if not test(value):
            raise ConfigError(f"{key} must be {condition}, got {value!r}")


def _check_fields(cfg, prefix: str = "") -> None:
    for f in fields(cfg):
        _check(prefix + f.name, getattr(cfg, f.name), *f.metadata.get("rules", ()))


def _check_keys(cls, doc: dict, prefix: str = "") -> None:
    """Raise ConfigError naming the first key of doc that is no field of cls."""
    names = {f.name for f in fields(cls)}
    for key in doc:
        if key not in names:
            raise ConfigError(f"{prefix}{key} is not a config key")


@dataclass(frozen=True)
class ChainSettings:
    """Per-seed Metropolis-Hastings settings; steps are derived from n_f.

    A chain runs burn_in + n_f * thin steps and keeps n_f, so n_f >= 1 and
    thin >= 1 already give it a step and a burn-in shorter than the chain.
    """

    proposal_std: float = _key(0.05, _REAL, _POSITIVE)
    burn_in: int = _key(500, _INT, _NONNEGATIVE)
    thin: int = _key(1, _INT, _AT_LEAST_ONE)
    base_seed: int = _key(0, _INT, _NONNEGATIVE)

    def __post_init__(self):
        _check_fields(self, "chain.")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full benchmark configuration; defaults reproduce the reference setup.

    Every scalar key carries its rules; ``n_grid``, ``lambda_rule`` and
    ``chain`` are checked by ``__post_init__``.
    """

    n_grid: tuple[int, ...] = (5, 9, 20, 50, 100, 200, 500, 1000)
    n_seeds: int = _key(10, _INT, _AT_LEAST_ONE)
    prior_sigma2: float = _key(0.02, _REAL, _POSITIVE)
    lambda_rule: str | float = "sqrt_n"
    delta: float = _key(0.025, _REAL, (lambda v: 0 < v <= 0.5, "in (0, 0.5]"))
    n_f: int = _key(5000, _INT, _AT_LEAST_ONE)
    chain: ChainSettings = field(default_factory=ChainSettings)
    e_inf: float = _key(1.27, _REAL, _POSITIVE)
    e_std: float = _key(1.0, _REAL, _POSITIVE)
    tau_max: float = _key(0.995, _REAL, (lambda v: 0 < v < 1, "in (0, 1)"))

    def __post_init__(self):
        grid = self.n_grid
        _check("n_grid", grid, (lambda v: isinstance(v, (tuple, list)), "a list of integers"))
        for i, n in enumerate(grid):
            _check(f"n_grid[{i}]", n, _INT)
        _check("n_grid", grid, (
            lambda v: v and v[0] >= 1 and all(a < b for a, b in zip(v, v[1:])),
            "a nonempty strictly ascending list of integers >= 1",
        ))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in grid))
        _check("chain", self.chain, (lambda v: isinstance(v, ChainSettings), "an object"))
        if isinstance(self.lambda_rule, str):
            _check("lambda_rule", self.lambda_rule,
                   (lambda v: v == "sqrt_n", "'sqrt_n' or a number > 0"))
        else:
            _check("lambda_rule", self.lambda_rule, _REAL, _POSITIVE)
        _check_fields(self)

    def lambda_for(self, n: int) -> float:
        if self.lambda_rule == "sqrt_n":
            return math.sqrt(n)
        return float(self.lambda_rule)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _check("config", doc, (lambda v: isinstance(v, dict), "an object"))
        _check_keys(cls, doc)
        doc = dict(doc)
        if isinstance(doc.get("chain"), dict):
            _check_keys(ChainSettings, doc["chain"], "chain.")
            doc["chain"] = ChainSettings(**doc["chain"])
        return cls(**doc)


def generate_dataset(
    seed: int, n: int, e_std: float = ExperimentConfig.e_std,
    e_inf: float = ExperimentConfig.e_inf,
) -> Trajectory:
    """Synthesize n steps of (input, label) data from the reference generator.

    Noise is truncated Gaussian with |e| <= e_inf coordinatewise; the
    generator runs from the zero state through a burn-in prefix so the
    recorded window approximates the steady-state output process.  The first
    output coordinate is the label y(t), the second the predictor input x(t).
    The outputs are written over the noise (n_v = n_y = 2), so generation
    holds two (burn + n, 2) arrays, the noise and the states, not three.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    gen = build_reference_generator()
    burn = burn_in_length(rnn_constants(gen), 0.0, _DATA_BURN_IN_TOL)
    rng = seeded_rng(seed)
    noise = truncated_gaussian(rng, e_std, e_inf, (burn + n) * gen.n_v).reshape(
        burn + n, gen.n_v
    )
    _, outputs = simulate(gen, np.zeros(gen.n_s), noise, out=noise)
    window = outputs[burn:]
    return Trajectory(inputs=window[:, 1:2], outputs=window[:, 0:1])


def _chain_rng(base_seed: int, seed: int) -> np.random.Generator:
    # Keyed by (base seed, data seed) only.  The spawn key makes the entropy
    # words [seed, 0, 0, 0, base_seed]; a data seed k < 2**128 has at most
    # four, so no data seed's seeded_rng(k) shares them.  SeedSequence([base_seed,
    # seed]) would not do: [3, 0] gives data seed 3's stream.
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(base_seed,)))
    )


def _prior_cloud(cfg: ExperimentConfig, seed: int) -> np.ndarray:
    """One seed's prior cloud, ``cfg.n_f`` rows of 14 parameters.

    Random-walk Metropolis-Hastings from theta = 0 on the N(0, prior_sigma2)
    prior truncated to tau = ||A||_2 < tau_max; keeps the states after steps
    burn_in + k * thin.  The chain draws from ``_chain_rng``, so the cloud
    does not depend on the n grid.
    """
    chain = cfg.chain
    rng = _chain_rng(chain.base_seed, seed)
    a_cols, a_shape = PARAM_SLICES["a"], PARAM_BLOCKS["a"]
    theta = np.zeros(PARAM_DIM)
    log_p = 0.0
    cloud = np.empty((cfg.n_f, PARAM_DIM))
    kept = 0
    for step in range(1, chain.burn_in + cfg.n_f * chain.thin + 1):
        prop = theta + chain.proposal_std * rng.normal(size=PARAM_DIM)
        u = rng.uniform()
        if spectral_norm(prop[a_cols].reshape(a_shape)) < cfg.tau_max:
            log_q = -0.5 * float(prop @ prop) / cfg.prior_sigma2
            if log_q >= log_p or (u > 0.0 and math.log(u) < log_q - log_p):
                theta, log_p = prop, log_q
        if step > chain.burn_in and (step - chain.burn_in) % chain.thin == 0:
            cloud[kept] = theta
            kept += 1
    return cloud


@dataclass(frozen=True)
class _SeedFacts:
    """What one seed's cloud and data give the bound, whatever n and lambda.

    ``constants``, ``gains``, ``l_ell`` and ``s0_norm`` hold one array entry
    per sample; ``losses`` holds one row per n of ``ns``, the cloud's mean
    losses on that data prefix.
    """

    ns: tuple[int, ...]
    data: DataConstants
    constants: StabilityConstants
    gains: GainPair
    l_ell: np.ndarray
    s0_norm: np.ndarray
    losses: np.ndarray


def _seed_facts(cfg: ExperimentConfig, thetas: np.ndarray, data: Trajectory) -> _SeedFacts:
    """Certify the cloud and take its losses on every prefix of ``data``.

    block_constants, gain_pair, loss_lipschitz and ||s0|| over arrays: B and
    C of the benchmark predictor are vectors and D is a scalar, so their
    spectral norms are Euclidean norms and an absolute value; ||A||_2 has a
    closed form.  Every sample must satisfy tau < tau_max.  The losses come
    from one pass over the n grid on the cloud as sampled, which steps each
    distinct state of the chain once (``cloudloss.prefix_losses``).
    """
    # Each block's rows, one per weight in row-major order: the rows of "a"
    # are A[0, 0], A[0, 1], A[1, 0], A[1, 1].
    a, b, c, d, s0 = (thetas[:, PARAM_SLICES[k]].T for k in ("a", "b", "c", "d", "s0"))
    consts = block_constants(
        _RELU.lipschitz, _TANH.lipschitz, spectral_norm_2x2(a[0], a[1], a[2], a[3]),
        np.hypot(b[0], b[1]), np.hypot(c[0], c[1]), np.abs(d[0]),
    )
    bad = np.flatnonzero(consts.tau >= cfg.tau_max)
    if bad.size:
        raise RuntimeError(
            f"retained sample {bad[0]} has tau={consts.tau[bad[0]]:.6f} >= "
            f"tau_max={cfg.tau_max}; prior truncation failed"
        )
    gh = gain_pair(consts)
    dc = generator_data_constants(build_reference_generator(), cfg.e_inf)
    return _SeedFacts(
        ns=cfg.n_grid, data=dc, constants=consts, gains=gh,
        l_ell=loss_lipschitz(_SQUARE_LOSS, dc, gh), s0_norm=np.hypot(s0[0], s0[1]),
        losses=prefix_losses(thetas, data.inputs, data.outputs, cfg.n_grid),
    )


def _reduce(
    facts: _SeedFacts, ns: Sequence[int], lambdas: Sequence[float], delta: float
) -> tuple[tuple[float, ...], ...]:
    """Columns ``(psi, kl, post_emp_loss, z_hat, r_n)``, one entry per (n, lambda) pair.

    Each pair reads the loss row of its n and reduces it with the scalar
    functions, one pair at a time.  The exponents and log-weights of all
    pairs as (pairs, samples) arrays give the same bytes, but raised the
    peak RSS of the 8-pair, 5000-sample reference grid from 38.75 to 39.25
    MB (three runs each on one CPU).
    """
    terms = []
    for n, lambda_ in zip(ns, lambdas):
        losses = facts.losses[facts.ns.index(n)]
        psi = pooled_psi(
            psi1_exponent(lambda_, n, facts.l_ell, facts.data, facts.gains),
            psi2_exponent(lambda_, n, facts.l_ell, facts.constants, facts.data.b_q,
                          facts.gains, facts.s0_norm),
        )
        z_hat, kl, post = gibbs_log_estimates(-lambda_ * losses, losses)
        terms.append((psi, kl, post, z_hat, pac_bound(lambda_, delta, kl, psi)))
    return tuple(zip(*terms))


def run_seed(cfg: ExperimentConfig, seed: int, data: Trajectory) -> list[BoundReport]:
    """Evaluate the bound at every n of the grid on prefixes of one seed's data.

    One prior cloud serves every n: the prior depends on neither the data nor
    n, so each per-n bound stays valid and equals the report of a one-n grid.
    The cloud's facts (``_seed_facts``) depend on neither n nor lambda; only
    their reduction at each (n, lambda) pair does (``_reduce``).
    """
    n_max = cfg.n_grid[-1]
    if data.length < n_max:
        raise ValueError(f"data has {data.length} rows, need at least {n_max}")
    facts = _seed_facts(cfg, _prior_cloud(cfg, seed), data)
    lambdas = [cfg.lambda_for(n) for n in cfg.n_grid]
    columns = _reduce(facts, cfg.n_grid, lambdas, cfg.delta)
    return [
        BoundReport(n=n, seed=seed, lambda_=lambda_, delta=cfg.delta, kl=kl, psi_hat=ph,
                    r_n=r_n, post_emp_loss=post, total=post + r_n, z_hat=z_hat,
                    n_samples=cfg.n_f)
        for n, lambda_, ph, kl, post, z_hat, r_n in zip(cfg.n_grid, lambdas, *columns)
    ]


class ExperimentReports(list):
    """``run_experiment``'s reports in cell order, with each seed's dataset.

    ``datasets[seed]`` is the trajectory the seed's cells were evaluated on;
    ``write_outputs`` writes it as that seed's trajectory file.
    """

    def __init__(self, reports: list[BoundReport], datasets: list[Trajectory]):
        super().__init__(reports)
        self.datasets = datasets


def run_experiment(
    cfg: ExperimentConfig, progress: Callable[[str], None] | None = None
) -> ExperimentReports:
    """Evaluate the bound over every (seed, n) cell in deterministic order.

    One data realisation per seed, sliced to prefixes for each n, and one
    prior cloud per seed.  The datasets are returned with the reports, so the
    result holds about n_seeds * n_max * 16 bytes of data.
    """
    n_max = cfg.n_grid[-1]
    reports, datasets = [], []
    for seed in range(cfg.n_seeds):
        data = generate_dataset(seed, n_max, cfg.e_std, cfg.e_inf)
        datasets.append(data)
        for report in run_seed(cfg, seed, data):
            reports.append(report)
            if progress is not None:
                progress(
                    f"seed={seed} n={report.n} total={report.total:.4f} "
                    f"(loss={report.post_emp_loss:.4f} r_n={report.r_n:.4f})"
                )
    return ExperimentReports(reports, datasets)


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


def _sorted_median(xs: list[float]) -> float:
    """Median of an ascending list, bit for bit as ``np.median`` gives it:
    the mean of the middle value or the two middle values, whose sum starts
    from 0.0 (so a zero median reads 0.0, never -0.0)."""
    mid = len(xs) // 2
    if len(xs) % 2:
        return 0.0 + xs[mid]
    return (0.0 + xs[mid - 1] + xs[mid]) / 2


def emit_curves(reports: list[BoundReport], out_dir: str) -> tuple[str, str]:
    """Write the bound-report CSV and the per-n summary CSV; returns their paths."""
    if not reports:
        raise ValueError("no reports to emit")
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "bound_reports.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for r in sorted(reports, key=lambda r: (r.seed, r.n)):
            reals = (r.lambda_, r.delta, r.kl, r.psi_hat, r.r_n,
                     r.post_emp_loss, r.total, r.z_hat)
            row = [str(r.n), str(r.seed), *map(_fmt, reals), str(r.n_samples)]
            fh.write(",".join(row) + "\n")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for n in sorted({r.n for r in reports}):
            # Medians taken here rather than by np.median, whose first call
            # imports numpy.ma (about 15 ms and 1 MB resident).
            totals = sorted(r.total for r in reports if r.n == n)
            posts = sorted(r.post_emp_loss for r in reports if r.n == n)
            stats = (_sorted_median(totals), totals[0], totals[-1],
                     _sorted_median(posts), posts[0], posts[-1], VACUITY_LEVEL)
            fh.write(",".join([str(n), *map(_fmt, stats)]) + "\n")
    return report_path, summary_path


def write_outputs(
    cfg: ExperimentConfig, reports: ExperimentReports, out_dir: str
) -> None:
    """Write the generator model, per-seed trajectories, and the report CSVs.

    ``reports`` is what ``run_experiment(cfg)`` returned; each seed's
    trajectory file is written from the dataset it carries.
    """
    os.makedirs(out_dir, exist_ok=True)
    save_model(build_reference_generator(), os.path.join(out_dir, "generator.json"))
    for seed in range(cfg.n_seeds):
        path = os.path.join(out_dir, f"trajectory_seed{seed}.csv")
        save_trajectory(reports.datasets[seed], path)
    emit_curves(reports, out_dir)
