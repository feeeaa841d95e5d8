"""End-to-end synthetic benchmark: data generation, prior sampling, bound evaluation.

The benchmark uses a fixed two-state generator with ReLU state updates and a
tanh output that emits a (label, input) pair per step, driven by truncated
Gaussian noise.  Predictors share the generator's shape; all 14 weights
including the initial state form the parameter vector.  The bound is
evaluated at every n of the grid from a fresh prior sample cloud per seed.
The prior is the zero-mean Gaussian truncated to the stability region
||A||_2 < tau_max; ``_prior_cloud`` samples it with one random-walk
Metropolis-Hastings chain per seed, started at theta = 0.  The cloud is
certified once and simulated as whole arrays, one entry per sample, and one
simulation pass gives its losses on every data prefix.
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
    gibbs_log_estimates,
    pac_bound,
    pooled_psi,
    psi1_exponent,
    psi2_exponent,
)
from .certify import GainPair, StabilityConstants, gain_pair, rnn_constants
from .dynsys import (
    _ZERO,
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

# Blocks of the benchmark predictor's parameter vector in order, each row-major:
# RnnSystem's weights under their field names, then the initial state s0.
_PARAM_BLOCKS = {"a": (2, 2), "b": (2, 1), "b_s": (2,), "c": (1, 2), "d": (1, 1),
                 "b_y": (1,), "s0": (2,)}


def _block_slices(shapes: dict[str, tuple[int, ...]]) -> tuple[dict[str, slice], int]:
    """Consecutive slices of named blocks in table order, and their total size."""
    slices, stop = {}, 0
    for name, shape in shapes.items():
        slices[name] = slice(stop, stop + math.prod(shape))
        stop = slices[name].stop
    return slices, stop


_PARAM_SLICES, PARAM_DIM = _block_slices(_PARAM_BLOCKS)

# Steady-state approximation tolerance used when generating data.
_DATA_BURN_IN_TOL = 1e-9

# Cap on the elements of the cloud loss pass's buffers of steps, the
# (steps, 3 * samples) pre-activations and the (steps, samples) squared
# errors; a buffer holds at least one step.
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
    """Per-seed Metropolis-Hastings settings; steps are derived from n_f.

    A chain runs burn_in + n_f * thin steps and keeps n_f, so n_f >= 1 and
    thin >= 1 already give it a step and a burn-in shorter than the chain.
    """

    proposal_std: float = 0.05
    burn_in: int = 500
    thin: int = 1
    base_seed: int = 0

    def __post_init__(self):
        for name in ("burn_in", "thin", "base_seed"):
            _require_int(f"chain.{name}", getattr(self, name))
        _require_real("chain.proposal_std", self.proposal_std)
        if self.proposal_std <= 0:
            raise ConfigError(f"chain.proposal_std must be > 0, got {self.proposal_std!r}")
        if self.burn_in < 0:
            raise ConfigError(f"chain.burn_in must be >= 0, got {self.burn_in!r}")
        if self.thin < 1:
            raise ConfigError(f"chain.thin must be >= 1, got {self.thin!r}")
        if self.base_seed < 0:
            raise ConfigError(f"chain.base_seed must be >= 0, got {self.base_seed!r}")


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


def _cell_chain_seed(base_seed: int, seed: int, n: int) -> int:
    # Distinct deterministic seed per (base seed, data seed, n) while the data
    # seed and n stay below the multiplier; base seed 0 gives
    # seed * 1_000_003 + n.  A seed's cloud is drawn with n = n_max, the seed
    # of its largest cell when every cell drew its own cloud.
    return (base_seed * 1_000_003 + seed) * 1_000_003 + n


def _prior_cloud(cfg: ExperimentConfig, seed: int) -> np.ndarray:
    """One seed's prior cloud, ``cfg.n_f`` rows of 14 parameters.

    Random-walk Metropolis-Hastings from theta = 0 on the N(0, prior_sigma2)
    prior truncated to tau = ||A||_2 < tau_max, seeded with the cell seed of
    the largest n; keeps the states after steps burn_in + k * thin.
    """
    chain = cfg.chain
    rng = seeded_rng(_cell_chain_seed(chain.base_seed, seed, cfg.n_grid[-1]))
    a_cols, a_shape = _PARAM_SLICES["a"], _PARAM_BLOCKS["a"]
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


def _cloud_blocks(thetas: np.ndarray) -> dict[str, np.ndarray]:
    """Every block of a (samples, PARAM_DIM) cloud, one row per weight in
    row-major order: the rows of "a" are A[0, 0], A[0, 1], A[1, 0], A[1, 1]."""
    return {name: thetas[:, cols].T for name, cols in _PARAM_SLICES.items()}


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

    Only the state feeds back, so the per-step loop does only the affine map
    and the ReLU.  Each step has one flat 3m-vector whose blocks are the
    next s0, the next s1 and the output pre-activation.  The input products
    k_x*x of a buffer of steps are formed per buffer, in one array
    operation; each step adds the state terms and then k_1 to its vector,
    so every element is summed in the order
    ``((k_s0*s0 + k_s1*s1) + k_x*x) + k_1`` (one IEEE addition commutes),
    and applies the ReLU to the first two blocks.  The state is kept as
    (s0, s1, s0, s1, s0, s1), so its halves line up with both products of
    every block: one multiply by (k_a | k_b) forms both, and no operand is
    broadcast.  The ReLU writes the first two blocks and one copy fills the
    other four.  The tanh and squared errors of a buffer of steps then run
    as array operations.

    Buffers end on a grid of ``rows`` steps and at every n of ``ns``, so a
    snapshot is always a buffer's last step.  A buffer's squares join the
    running sums in time order by one reduction over axis 0 of the running
    sum followed by its rows: numpy adds the rows of a C-ordered block one
    after another, but a single column pairwise, hence at least two columns.
    A one-step buffer (every buffer, for more than 2048 samples) is one
    in-place addition: the same sum without copying the running sum in.
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
    # Blocks (next s0, next s1, output) of the coefficients.  The first half
    # of k_ab multiplies the state's first half (s0, s1, s0) and the second
    # half its second (s1, s0, s1); a sum of two terms is exact in either
    # order.
    w = _cloud_blocks(thetas)
    a, c, s0 = w["a"], w["c"], w["s0"]
    k_ab = np.concatenate([a[0], a[3], c[0], a[1], a[2], c[1]])
    k_x = np.concatenate([*w["b"], *w["d"]])
    k_1 = np.concatenate([*w["b_s"], *w["b_y"]])
    state = np.concatenate([*s0, *s0, *s0])
    state_s, state_copies = state[: 2 * m], state[2 * m :].reshape(2, 2 * m)
    rows = max(1, min(n_max, _LOSS_CHUNK_ELEMENTS // (4 * max(m, 1))))
    pre = np.empty((rows, 3 * m))
    steps = [(p, p[: 2 * m]) for p in pre]
    prod = np.empty(6 * m)
    prod_a, prod_b = prod[: 3 * m], prod[3 * m :]
    multiply, add, maximum = np.multiply, np.add, np.maximum
    # Row j >= 1 of sums holds the squared errors of the buffer's j-th step;
    # row 0 receives the running sum before the buffer's reduction.
    sums = np.zeros((rows + 1, max(m, 2)))
    squares = sums[1:, :m]
    acc = np.zeros(sums.shape[1])
    means = np.empty((len(ns), m))
    k = 0
    stops = sorted({*range(rows, n_max, rows), *ns})
    for start, stop in zip([0, *stops], stops):
        n_rows = stop - start
        np.multiply(x[start:stop, None], k_x, pre[:n_rows])
        for p, p_s in steps[:n_rows]:
            multiply(k_ab, state, prod)
            add(prod_a, prod_b, prod_a)
            p += prod_a
            p += k_1
            maximum(p_s, _ZERO, out=state_s)
            state_copies[...] = state_s
        # The squared errors get a contiguous buffer of their own: numpy is
        # slower on the strided output blocks of pre.
        sq_chunk = squares[:n_rows]
        np.tanh(pre[:n_rows, 2 * m :], sq_chunk)
        sq_chunk -= y[start:stop, None]
        sq_chunk *= sq_chunk
        if n_rows == 1:
            acc += sums[1]
        else:
            sums[0] = acc
            np.add.reduce(sums[: n_rows + 1], 0, None, acc)
        if stop == ns[k]:
            np.divide(acc[:m], stop, means[k])
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
    w = _cloud_blocks(thetas)
    a, b, c, s0 = w["a"], w["b"], w["c"], w["s0"]
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
        l_v=_RELU.lipschitz * np.hypot(b[0], b[1]),
        l_gs=_TANH.lipschitz * np.hypot(c[0], c[1]),
        l_gv=_TANH.lipschitz * np.abs(w["d"][0]),
    )
    gh = gain_pair(consts)
    l_ell = loss_lipschitz(_SQUARE_LOSS, dc, gh)
    return consts, gh, l_ell, np.hypot(s0[0], s0[1])


def run_seed(cfg: ExperimentConfig, seed: int, data: Trajectory) -> list[BoundReport]:
    """Evaluate the bound at every n of the grid on prefixes of one seed's data.

    One prior cloud serves every n: the prior depends on neither the data nor
    n, so each per-n bound stays valid.  The cloud's chain seed is the cell
    seed of the largest n.  The cloud is certified and simulated once; only
    the moment exponents and the Gibbs reweighting depend on n.  The
    reweighting takes the log-weights -lambda*loss, so every lambda evaluates.
    """
    n_max = cfg.n_grid[-1]
    if data.length < n_max:
        raise ValueError(f"data has {data.length} rows, need at least {n_max}")
    thetas = _prior_cloud(cfg, seed)
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
        z_hat, kl, post_emp_loss = gibbs_log_estimates(-lambda_ * losses, losses)
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

    One data realisation per seed, sliced to prefixes for each n; a fresh
    prior cloud is drawn per seed with a seed-specific chain seed.  The
    datasets are returned with the reports, so the result holds about
    n_seeds * n_max * 16 bytes of data.
    """
    n_max = cfg.n_grid[-1]
    # A chain seeded like a data seed would draw the prior from that seed's
    # data stream; with base seed 0 that is seed 0's chain when n_max < n_seeds.
    for seed in range(cfg.n_seeds):
        chain_seed = _cell_chain_seed(cfg.chain.base_seed, seed, n_max)
        if chain_seed < cfg.n_seeds:
            raise ConfigError(
                f"the prior chain of seed {seed} would reuse the stream of data "
                f"seed {chain_seed}; with n_seeds={cfg.n_seeds}, use a largest n "
                f"of at least n_seeds or a chain.base_seed above 0"
            )
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
            totals = np.array(sorted(r.total for r in reports if r.n == n))
            posts = np.array(sorted(r.post_emp_loss for r in reports if r.n == n))
            stats = (np.median(totals), totals[0], totals[-1],
                     np.median(posts), posts[0], posts[-1], VACUITY_LEVEL)
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
