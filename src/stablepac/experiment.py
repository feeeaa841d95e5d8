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
The cloud is simulated as whole arrays, one entry per distinct state: a
rejected proposal repeats the chain's state, and each run of identical
consecutive rows is simulated once.  One simulation pass gives the losses on
every data prefix.  A small cloud steps several consecutive time segments of
the series side by side, in rounds of bounded memory, and gets the step
loop's losses bit for bit.  One reduction (``_reduce``) turns the facts into
the bound's terms at any sequence of (n, lambda) pairs.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
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

# The cloud loss pass steps k = _LOSS_COLUMNS // m time segments of its m
# samples side by side.  On the long_series cloud (154 distinct rows, n =
# 1e5; best of six on one CPU) the pass took 0.36 s at one segment per
# round and 0.28-0.29 s at budgets of 320 to 960 columns.  Two segments do
# not pay: the full 300-row cloud took 0.55 s at k = 2 against 0.53 s at
# k = 1.
_LOSS_COLUMNS = 640
# Cap on the squared errors of one round of the loss pass, a time-major
# (steps, samples) buffer: 2 MiB.
_LOSS_ROUND_ELEMENTS = 1 << 18
# Cap on the elements of the loss pass's buffer of steps, (steps, 3 x
# columns) pre-activations; it holds at least one step.
_LOSS_CHUNK_ELEMENTS = 1 << 15
# Steps of the zero-state warm-up before each later segment of a loss
# round: on the long_series clouds of base seeds 0, 1000, 2000 and 3000
# (146-157 distinct rows, 168-180 boundaries each at n = 1e5), 32 steps
# left 363-2239 sample starts per cloud off in some byte (so those samples
# ran their segment twice), 48 steps 5 (base seed 1000), 64 none.
_LOSS_WARM_UP_STEPS = 64

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


def _loss_round_shape(m: int, n_max: int) -> tuple[int, int]:
    """Segments per round k and steps per segment L of the loss pass over m
    samples: at most ``_LOSS_COLUMNS`` columns k*m (at least one segment),
    at most ``_LOSS_ROUND_ELEMENTS`` squared errors k*L*m in a round (at
    least one step), and rounds of equal shape that cover n_max steps with
    the fewest padded steps.  A round of one segment has no warm-up to
    spread, so it is one buffer of steps, which keeps the buffers of a
    large cloud small."""
    k = max(1, _LOSS_COLUMNS // m)
    cap = _LOSS_ROUND_ELEMENTS if k > 1 else _LOSS_CHUNK_ELEMENTS // 3
    most = max(1, cap // (k * m))
    segments = -(-n_max // most)
    rounds = -(-segments // k)
    k = -(-segments // rounds)
    return k, -(-n_max // (rounds * k))


def _step_rows(
    coef: tuple[np.ndarray, np.ndarray, np.ndarray],
    state: np.ndarray,
    x: np.ndarray,
    y: np.ndarray | None,
    out: np.ndarray | None,
    rows: np.ndarray,
) -> None:
    """Step c = segs * m predictors over the inputs x, (steps, segs).

    ``coef`` is (k_ab, k_x, k_1) with k_ab (6c,), k_x (3, m) and k_1 (3c,);
    ``state`` is (s0, s1, s0, s1, s0, s1), 6c, each block segment-major, and
    is advanced in place: its halves line up with both state products of
    every block, so one multiply by k_ab forms them, the ReLU writes the
    first two blocks and one copy fills the other four.  ``rows``,
    (b, 3, segs, m), takes b steps at a time: their input products k_x*x in
    one array operation, then each step's flat 3c-vector of pre-activations
    (next s0, next s1, output).  ``out``, (segs, steps, m), receives the
    squared errors against the labels y, (steps, segs); a warm-up passes
    None for both.
    """
    k_ab, k_x, k_1 = coef
    c = k_1.size // 3
    steps = [(p, p[: 2 * c]) for p in rows.reshape(rows.shape[0], 3 * c)]
    prod = np.empty(6 * c)
    prod_a, prod_b = prod[: 3 * c], prod[3 * c :]
    state_s, state_copies = state[: 2 * c], state[2 * c :].reshape(2, 2 * c)
    multiply, add, maximum = np.multiply, np.add, np.maximum
    for start in range(0, x.shape[0], len(steps)):
        chunk = x[start : start + len(steps)]
        b = chunk.shape[0]
        np.multiply(chunk[:, None, :, None], k_x[:, None], rows[:b])
        for p, p_s in steps[:b]:
            multiply(k_ab, state, prod)
            add(prod_a, prod_b, prod_a)
            p += prod_a
            p += k_1
            maximum(p_s, _ZERO, out=state_s)
            state_copies[...] = state_s
        if out is not None:
            sq = out[:, start : start + b]
            np.tanh(rows[:b, 2].swapaxes(0, 1), sq)
            sq -= y[start : start + b].T[:, :, None]
            sq *= sq


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

    The series is cut into segments of L steps, and the pass works through
    it one round of k consecutive segments at a time, stepped side by side
    as k*m columns (``_loss_round_shape``; k = 1 above
    ``_LOSS_COLUMNS // 2`` samples).  Segment 0 of a round starts from the
    exact state the round before ended in; each later one from a zero-state
    warm-up over the ``_LOSS_WARM_UP_STEPS`` steps before it, which a stable
    predictor forgets its start over.  Then the boundaries are checked in
    order, as ``dynsys.simulate`` does: the samples whose start differs in
    any byte from the end of the segment before are run again over the
    segment, from that end.  A predictor started from the exact bytes of its
    state repeats the step loop's arithmetic, so by induction from the first
    step every pre-activation is the step loop's, bit for bit, whether or not
    the predictor forgets.

    Only the state feeds back, so the step loop (``_step_rows``) does only
    the affine map and the ReLU, and sums every element in the order
    ``((k_s0*s0 + k_s1*s1) + k_x*x) + k_1`` (one IEEE addition commutes).
    The squared errors of a round's outputs go into one time-major buffer.
    They join the running sums in time order, in pieces that end at every
    n: each piece is one reduction over axis 0 of the running sum, written
    into the row before the piece (already summed, or a spare), followed by
    the piece's rows.  numpy adds the rows of a C-ordered block one after
    another, but a single column pairwise, so a lone sample is simulated
    twice.  A one-row piece is one in-place addition: the same sum without
    copying the running sum in.
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
    m_in = thetas.shape[0]
    if m_in == 1:
        thetas = np.concatenate([thetas, thetas])
    m = thetas.shape[0]
    n_max = ns[-1]
    k, L = _loss_round_shape(m, n_max)
    x = inputs[:n_max, 0]
    y = labels[:n_max, 0]
    # Blocks (next s0, next s1, output) of the coefficients, each repeated
    # for the k segments of a round (k_x, a row per block, is broadcast).
    # The first half of k_ab multiplies the state's first half (s0, s1, s0)
    # and the second half its second (s1, s0, s1); a sum of two terms is
    # exact in either order.
    w = _cloud_blocks(thetas)
    a, c = w["a"], w["c"]
    k_ab = np.stack(
        [np.broadcast_to(v, (k, m)) for v in (a[0], a[3], c[0], a[1], a[2], c[1])]
    )
    k_x = np.concatenate([w["b"], w["d"]])
    k_1 = np.stack([np.broadcast_to(v, (k, m)) for v in (*w["b_s"], *w["b_y"])])
    coef = (k_ab.reshape(-1), k_x, k_1.reshape(-1))
    rows = np.empty((max(1, min(L, _LOSS_CHUNK_ELEMENTS // (3 * k * m))), 3, k, m))
    state = np.empty(6 * k * m)
    ends = state[: 2 * k * m].reshape(2, k, m)
    carry = w["s0"]
    warm = min(_LOSS_WARM_UP_STEPS, L)
    # A round's inputs and labels, segment by segment, zero past n_max; the
    # warm-up's inputs, zero in segment 0's column.
    xs, ys, xw = np.zeros((k, L)), np.zeros((k, L)), np.zeros((warm, k))
    # Rows 1.. of sums hold a round's squared errors in time order; row 0 is
    # spare for the running sum.
    sums = np.empty((k * L + 1, m))
    squares = sums[1:].reshape(k, L, m)
    acc = np.zeros(m)
    means = np.empty((len(ns), m_in))
    q = 0
    for r0 in range(0, n_max, k * L):
        n_r = min(k * L, n_max - r0)
        xs.flat[:n_r], ys.flat[:n_r] = x[r0 : r0 + n_r], y[r0 : r0 + n_r]
        xs.flat[n_r:] = ys.flat[n_r:] = 0.0
        if k > 1:
            xw[:, 1:] = xs[:-1, L - warm :].T
            state[:] = 0.0
            _step_rows(coef, state, xw, None, None, rows)
        ends[:, 0] = carry
        starts = ends.copy()
        state[2 * k * m :].reshape(2, -1)[...] = state[: 2 * k * m]
        _step_rows(coef, state, xs.T, ys.T, squares, rows)
        for j in range(1, -(-n_r // L)):
            prev = ends[:, j - 1]
            bits = starts[:, j].view(np.uint64) != prev.view(np.uint64)
            cols = np.flatnonzero(np.any(bits, axis=0))
            if cols.size:
                rerun = np.tile(prev[:, cols].ravel(), 3)
                sub = (k_ab[:, 0, cols].ravel(), k_x[:, cols], k_1[:, 0, cols].ravel())
                sub_rows = np.empty((rows.shape[0], 3, 1, cols.size))
                out = np.empty((1, L, cols.size))
                _step_rows(sub, rerun, xs[j, :, None], ys[j, :, None], out, sub_rows)
                squares[j][:, cols] = out[0]
                ends[:, j, cols] = rerun[: 2 * cols.size].reshape(2, -1)
        carry = ends[:, -1].copy()
        start = 0
        while start < n_r:
            stop = min(n_r, ns[q] - r0)
            if stop == start + 1:
                acc += sums[stop]
            else:
                sums[start] = acc
                np.add.reduce(sums[start : stop + 1], 0, None, acc)
            if r0 + stop == ns[q]:
                np.divide(acc[:m_in], ns[q], means[q])
                q += 1
            start = stop
    return means


def _cloud_losses(
    thetas: np.ndarray, inputs: np.ndarray, labels: np.ndarray, ns: Sequence[int]
) -> np.ndarray:
    """``_batch_empirical_losses`` of the cloud, each distinct state simulated once.

    A Metropolis-Hastings chain keeps its state on every rejected proposal,
    so runs of consecutive rows are identical.  Rows are compared as uint64
    words (so -0.0 and 0.0 differ), only the first row of each run is
    simulated, and its losses fill the run's columns.  The loss pass is
    elementwise over samples, so every column equals the full cloud's bit
    for bit.
    """
    bits = thetas.view(np.uint64)
    starts = np.ones(thetas.shape[0], dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=starts[1:])
    rows = _batch_empirical_losses(thetas[starts], inputs, labels, ns)
    return rows.take(np.cumsum(starts) - 1, axis=1)


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

    rnn_constants, gain_pair, loss_lipschitz and ||s0|| over arrays: B and C
    of the benchmark predictor are vectors and D is a scalar, so their
    spectral norms are Euclidean norms and an absolute value; ||A||_2 has a
    closed form.  Every sample must satisfy tau < tau_max.  The losses come
    from one pass over the n grid, each distinct state of the chain once
    (``_cloud_losses``).
    """
    n_max = cfg.n_grid[-1]
    if data.length < n_max:
        raise ValueError(f"data has {data.length} rows, need at least {n_max}")
    w = _cloud_blocks(thetas)
    a, b, c, s0 = w["a"], w["b"], w["c"], w["s0"]
    tau = _RELU.lipschitz * spectral_norm_2x2(a[0], a[1], a[2], a[3])
    bad = np.flatnonzero(tau >= cfg.tau_max)
    if bad.size:
        raise RuntimeError(
            f"retained sample {bad[0]} has tau={tau[bad[0]]:.6f} >= tau_max={cfg.tau_max}; "
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
    dc = generator_data_constants(build_reference_generator(), cfg.e_inf)
    return _SeedFacts(
        ns=cfg.n_grid, data=dc, constants=consts, gains=gh,
        l_ell=loss_lipschitz(_SQUARE_LOSS, dc, gh), s0_norm=np.hypot(s0[0], s0[1]),
        losses=_cloud_losses(thetas, data.inputs, data.outputs, cfg.n_grid),
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
