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
losses bit for bit.  One function (``_cell``) turns the facts and one loss
row into the report of an (n, lambda) cell.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import Callable, get_type_hints

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
from .errors import (
    AT_LEAST_ONE, CONFIDENCE, INT, NONNEGATIVE, OBJECT, POSITIVE, REAL, ConfigError,
    InstabilityError, check,
)
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


def _key(default, *rules):
    """A config field with its default and the rules its values must pass."""
    return field(default=default, metadata={"rules": rules})


def _or_sqrt_n(test, condition):
    """A rule that the string "sqrt_n" passes and any other string fails."""
    return (lambda v: v == "sqrt_n" if isinstance(v, str) else test(v)), condition


def _check_fields(cfg, prefix: str = "") -> None:
    for f in fields(cfg):
        check(prefix + f.name, getattr(cfg, f.name), *f.metadata.get("rules", ()),
              error=ConfigError)


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

    proposal_std: float = _key(0.05, REAL, POSITIVE)
    burn_in: int = _key(500, INT, NONNEGATIVE)
    thin: int = _key(1, INT, AT_LEAST_ONE)
    base_seed: int = _key(0, INT, NONNEGATIVE)

    def __post_init__(self):
        _check_fields(self, "chain.")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full benchmark configuration; defaults reproduce the reference setup.

    Every scalar key carries its rules; ``n_grid`` and ``chain`` are checked
    by ``__post_init__``.
    """

    n_grid: tuple[int, ...] = (5, 9, 20, 50, 100, 200, 500, 1000)
    n_seeds: int = _key(10, INT, AT_LEAST_ONE)
    prior_sigma2: float = _key(0.02, REAL, POSITIVE)
    # lambda = sqrt(n) in each cell, or one fixed number > 0 for all.
    lambda_rule: str | float = _key(
        "sqrt_n", _or_sqrt_n(REAL[0], "a finite number or 'sqrt_n'"), _or_sqrt_n(*POSITIVE)
    )
    delta: float = _key(0.025, REAL, CONFIDENCE)
    n_f: int = _key(5000, INT, AT_LEAST_ONE)
    chain: ChainSettings = field(default_factory=ChainSettings)
    e_inf: float = _key(1.27, REAL, POSITIVE)
    e_std: float = _key(1.0, REAL, POSITIVE)
    tau_max: float = _key(0.995, REAL, (lambda v: 0 < v < 1, "in (0, 1)"))

    def __post_init__(self):
        grid = self.n_grid
        check("n_grid", grid, (lambda v: isinstance(v, (tuple, list)), "a list of integers"),
              error=ConfigError)
        for i, n in enumerate(grid):
            check(f"n_grid[{i}]", n, INT, error=ConfigError)
        check("n_grid", grid, (
            lambda v: v and v[0] >= 1 and all(a < b for a, b in zip(v, v[1:])),
            "a nonempty strictly ascending list of integers >= 1",
        ), error=ConfigError)
        object.__setattr__(self, "n_grid", tuple(int(n) for n in grid))
        check("chain", self.chain, (lambda v: isinstance(v, ChainSettings), "an object"),
              error=ConfigError)
        _check_fields(self)

    def lambda_for(self, n: int) -> float:
        if self.lambda_rule == "sqrt_n":
            return math.sqrt(n)
        return float(self.lambda_rule)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        check("config", doc, OBJECT, error=ConfigError)
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
    Each argument is checked under its own name before any draw.
    """
    check("seed", seed, INT, NONNEGATIVE)
    check("n", n, INT, POSITIVE)
    check("e_std", e_std, REAL, POSITIVE)
    check("e_inf", e_inf, REAL, POSITIVE)
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
    per sample; ``losses`` holds one row per n of the grid, the cloud's mean
    losses on that data prefix.
    """

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
        data=dc, constants=consts, gains=gh,
        l_ell=loss_lipschitz(_SQUARE_LOSS, dc, gh), s0_norm=np.hypot(s0[0], s0[1]),
        losses=prefix_losses(thetas, data.inputs, data.outputs, cfg.n_grid),
    )


def _cell(
    facts: _SeedFacts, seed: int, n: int, losses: np.ndarray, lambda_: float, delta: float
) -> BoundReport:
    """The report of one (n, lambda) cell: the seed's facts and the cloud's losses at n.

    One cell at a time: the exponents and log-weights of all cells as
    (cells, samples) arrays give the same bytes, but raised the peak RSS of
    the 8-cell, 5000-sample reference grid from 38.75 to 39.25 MB (three runs
    each on one CPU).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        psi1 = psi1_exponent(lambda_, n, facts.l_ell, facts.data, facts.gains)
        psi2 = psi2_exponent(lambda_, n, facts.l_ell, facts.constants, facts.data.b_q,
                             facts.gains, facts.s0_norm)
        log_beta = -lambda_ * losses
    if not all(np.isfinite(v).all() for v in (psi1, psi2, log_beta)):
        raise InstabilityError(f"lambda = {lambda_!r} overflows the bound's exponents at n = {n}")
    psi = pooled_psi(psi1, psi2)
    z_hat, kl, post = gibbs_log_estimates(log_beta, losses)
    r_n = pac_bound(lambda_, delta, kl, psi)
    return BoundReport(n=n, seed=seed, lambda_=lambda_, delta=delta, kl=kl, psi_hat=psi,
                       r_n=r_n, post_emp_loss=post, total=post + r_n, z_hat=z_hat,
                       n_samples=losses.size)


def run_seed(cfg: ExperimentConfig, seed: int, data: Trajectory) -> list[BoundReport]:
    """Evaluate the bound at every n of the grid on prefixes of one seed's data.

    One prior cloud serves every n: the prior depends on neither the data nor
    n, so each per-n bound stays valid and equals the report of a one-n grid.
    The cloud's facts (``_seed_facts``) depend on neither n nor lambda; only
    each (n, lambda) cell's report does (``_cell``).
    """
    n_max = cfg.n_grid[-1]
    if data.length < n_max:
        raise ValueError(f"data has {data.length} rows, need at least {n_max}")
    facts = _seed_facts(cfg, _prior_cloud(cfg, seed), data)
    return [_cell(facts, seed, n, losses, cfg.lambda_for(n), cfg.delta)
            for n, losses in zip(cfg.n_grid, facts.losses)]


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

def _fmt(x: float) -> str:
    return repr(float(x))


# bound_reports.csv holds BoundReport's fields in declaration order, each
# headed by its name but for these, and written as digits where declared int,
# else as a float's repr (so a float field holding 2 reads 2.0).  summary.csv
# holds N, a median, a min and a max of each summarised field, and the
# vacuity level.
_HEADERS = {"n": "N", "lambda_": "lambda", "r_n": "r_N", "total": "total_bound"}
_REPORT_FIELDS = [(name, str if kind is int else _fmt)
                  for name, kind in get_type_hints(BoundReport).items()]
_SUMMARISED = ("total", "post_emp_loss")
REPORT_COLUMNS = [_HEADERS.get(name, name) for name, _ in _REPORT_FIELDS]
SUMMARY_COLUMNS = ["N", *(f"{name}_{stat}" for name in _SUMMARISED
                          for stat in ("median", "min", "max")), "vacuity_level"]


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
            fh.write(",".join(write(getattr(r, name)) for name, write in _REPORT_FIELDS) + "\n")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for n in sorted({r.n for r in reports}):
            # Medians taken here rather than by np.median, whose first call
            # imports numpy.ma (about 15 ms and 1 MB resident).
            stats = []
            for name in _SUMMARISED:
                xs = sorted(getattr(r, name) for r in reports if r.n == n)
                stats += [_sorted_median(xs), xs[0], xs[-1]]
            fh.write(",".join([str(n), *map(_fmt, [*stats, VACUITY_LEVEL])]) + "\n")
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
