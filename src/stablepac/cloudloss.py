"""The cloud loss pass: every predictor's mean squared loss on each data prefix.

The predictors are the benchmark's ReLU/tanh recurrent networks, two states,
one input and one output, given as arrays over the cloud
(``prefix_losses``).  Each loss sums its steps in fixed blocks of
``_LOSS_BLOCK`` steps, so no block's sum waits for the blocks before it: the
pass steps the blocks of the series side by side and still gets the bits of
a step loop that keeps the same sums.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .numerics import ZERO

# A sample's loss sum restarts at every block of this many steps, at t = 0,
# 4096, 8192, ...; the block sums are added in block order.  The pass steps
# its blocks side by side, one lane of m samples per block.
_LOSS_BLOCK = 4096
# Columns (lanes x samples) the pass steps side by side: the 25 lanes of the
# long_series cloud (154 distinct rows, n = 1e5) and of a 300-row i.i.d.
# cloud take one round each, so each steps 4096 times.
_LOSS_COLUMNS = 1 << 14
# Cap on the elements of the pass's buffer of steps, (steps, 3 x columns)
# pre-activations; it holds at least one step.  On the long_series cloud,
# caps of 2^16 to 2^19 ran within the noise of 2^15.
_LOSS_CHUNK_ELEMENTS = 1 << 15
# Steps of the zero-state warm-up before each later lane of a loss round: on
# the long_series clouds of base seeds 0, 1000, 2000 and 3000 (146-157
# distinct rows, 24 lane boundaries each at n = 1e5), 32 steps left a start
# off at every boundary, 48 steps at 2 (base seed 1000), 64 at none.  A lane
# with any start off runs twice.
_LOSS_WARM_UP_STEPS = 64


def _loss_lanes(m: int, n_max: int) -> int:
    """Lanes per round of the loss pass over m samples: the blocks of n_max
    steps in the fewest rounds of at most ``_LOSS_COLUMNS // m`` lanes (at
    least one), all rounds of one size."""
    blocks = -(-n_max // _LOSS_BLOCK)
    rounds = -(-blocks // max(1, _LOSS_COLUMNS // m))
    return -(-blocks // rounds)


def _lanes(series: np.ndarray, lanes: int) -> tuple[np.ndarray, np.ndarray]:
    """The series as ``lanes`` rows of ``_LOSS_BLOCK`` steps: a view of its
    whole blocks, and a copy of the rest, zero past the series."""
    cut = series.shape[0] // _LOSS_BLOCK * _LOSS_BLOCK
    rest = np.zeros((lanes - cut // _LOSS_BLOCK, _LOSS_BLOCK))
    rest.flat[: series.shape[0] - cut] = series[cut:]
    return series[:cut].reshape(-1, _LOSS_BLOCK), rest


def _take_lanes(dst: np.ndarray, lanes: tuple[np.ndarray, np.ndarray], l0: int, s: int) -> None:
    """dst, (b, k): steps s to s+b-1 of lanes l0 to l0+k-1 of ``_lanes``."""
    whole, rest = lanes
    b, k = dst.shape
    h = min(max(whole.shape[0] - l0, 0), k)
    dst[:, :h] = whole[l0 : l0 + h, s : s + b].T
    if h < k:
        l1 = l0 + h - whole.shape[0]
        dst[:, h:] = rest[l1 : l1 + k - h, s : s + b].T


def _step_rows(
    coef: tuple[np.ndarray, np.ndarray, np.ndarray],
    state: np.ndarray,
    x: np.ndarray,
    rows: np.ndarray,
) -> None:
    """Step c = k * m predictors over the inputs x, (b, k), of k lanes.

    ``coef`` is (k_ab, k_x, k_1) with k_ab (6c,), k_x (3, m) and k_1 (3c,);
    ``state`` is (s0, s1, s0, s1, s0, s1), 6c, each block lane-major, and is
    advanced in place: its halves line up with both state products of every
    block, so one multiply by k_ab forms them in place, then the ReLU writes
    the first two blocks and one copy the other four.  ``rows``, (b', 3, k,
    m) with b' >= b, receives the input products k_x*x of the b steps in
    one array operation, then each step's flat 3c-vector of pre-activations
    (next s0, next s1, output).
    """
    k_ab, k_x, k_1 = coef
    c = k_1.size // 3
    b = x.shape[0]
    pre = rows[:b]
    np.multiply(x[:, None, :, None], k_x[:, None], pre)
    half_a, half_b = state[: 3 * c], state[3 * c :]
    state_s, copies = state[: 2 * c], state[2 * c :].reshape(2, 2 * c)
    multiply, add, maximum = np.multiply, np.add, np.maximum
    for p in pre.reshape(b, 3 * c):
        multiply(state, k_ab, state)
        add(half_a, half_b, half_a)
        p += half_a
        p += k_1
        maximum(p[: 2 * c], ZERO, out=state_s)
        copies[...] = state_s


def _lane_sums(
    coef: tuple[np.ndarray, np.ndarray, np.ndarray],
    state: np.ndarray,
    x: tuple[np.ndarray, np.ndarray],
    y: tuple[np.ndarray, np.ndarray],
    l0: int,
    steps: int,
    rows: np.ndarray,
    ends_in: dict[int, list[tuple[int, int]]],
    sums: np.ndarray,
) -> np.ndarray:
    """Step lanes l0 to l0+k-1 of the inputs x over the first ``steps``
    steps of their blocks and sum their squared errors against the labels y
    (both ``_lanes``).

    Returns each lane's sum, (k, m).  ``rows`` is ``_step_rows``'
    buffer, (b, 3, k, m).  ``ends_in`` lists (q, o) for each block: the
    running sum of the block's lane after o steps goes to sums[q].  Each
    buffer of at most b steps ends at the next such offset of the k lanes or
    at ``steps``.  Its squared errors go into rows 1.. of a time-major
    buffer, the running sums into row 0, and one reduction over axis 0 joins
    them.  numpy adds the rows of a C-ordered block one after another, but a
    single column pairwise, so a lone sample is simulated twice.
    """
    b, _, k, m = rows.shape
    xs, ys = np.empty((b, k)), np.empty((b, k))
    sq = np.empty((b + 1, k * m))
    acc = np.zeros(k * m)
    lane_acc = acc.reshape(k, m)
    takes = {}
    for i in range(k):
        for q, o in ends_in.get(l0 + i, ()):
            takes.setdefault(o, []).append((q, i))
    s = 0
    while s < steps:
        n = min(b, steps - s, *(o - s for o in takes if o > s))
        _take_lanes(xs[:n], x, l0, s)
        _take_lanes(ys[:n], y, l0, s)
        _step_rows(coef, state, xs[:n], rows)
        err = sq[1 : n + 1]
        np.tanh(rows[:n, 2].reshape(n, k * m), err)
        np.subtract(err.reshape(n, k, m), ys[:n, :, None], err.reshape(n, k, m))
        err *= err
        sq[0] = acc
        np.add.reduce(sq[: n + 1], 0, None, acc)
        s += n
        for q, i in takes.get(s, ()):
            sums[q] = lane_acc[i]
    return lane_acc


def prefix_losses(
    w: dict[str, np.ndarray], inputs: np.ndarray, labels: np.ndarray, ns: Sequence[int]
) -> np.ndarray:
    """Mean squared losses of every predictor of a cloud on each data prefix.

    ``w`` maps each weight block of the benchmark predictor, "a", "b",
    "b_s", "c", "d", "b_y" and "s0", to a (weights, m) array, one row per
    weight in row-major order and one column per predictor.  Row k holds
    the mean loss over the first ``ns[k]`` steps, for ascending ``ns``.  A
    sample's loss sum restarts at every block of ``_LOSS_BLOCK`` steps, t =
    0, 4096, 8192, ..., and the row for n in block j is
    ``(((bs_0 + bs_1) + ...) + bs_{j-1}) + partial_j(n)``, divided by n:
    the sums bs of the whole blocks before n in block order, then the
    running sum of block j up to n, each in time order from 0.0.  For n <=
    4096 that is the plain running sum.  No row depends on the other ns or
    on the pass's buffer sizes, so each equals a separate pass over its
    prefix bit for bit.  Pure elementwise arithmetic on arrays over the
    cloud: deterministic and independent of BLAS threading.  Agrees with
    per-sample empirical_loss, one running sum, bit for bit up to 4096 steps
    and to rounding beyond.

    The pass steps one lane of all m samples per block, k lanes side by
    side as k*m columns (``_loss_lanes``), in rounds of consecutive blocks.
    Lane 0 of a round starts from the exact state the round before ended in;
    each later one from a zero-state warm-up over the
    ``_LOSS_WARM_UP_STEPS`` steps before it, which a stable predictor
    forgets its start over.  Then the boundaries are checked in order, as
    ``dynsys.simulate`` does: where a lane's start differs in any byte from
    the end of the lane before, the whole lane, every sample, is run again
    from that end, and its block sum and snapshots with it.  A predictor
    started from the exact bytes of its state repeats the step loop's
    arithmetic, so by induction from the first step every pre-activation is
    the step loop's, bit for bit, whether or not the predictor forgets; a
    sample whose start already matched repeats its bits.  Each lane sums
    its own block (``_lane_sums``): a buffer of steps ends at the next
    prefix offset of its lanes or at the block end, and joins the lane sums
    in one reduction.

    Only the state feeds back, so the step loop (``_step_rows``) does only
    the affine map and the ReLU, and sums every element in the order
    ``((k_s0*s0 + k_s1*s1) + k_x*x) + k_1`` (one IEEE addition commutes).
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
    m_in = w["s0"].shape[1]
    if m_in == 1:
        w = {name: np.concatenate([v, v], axis=1) for name, v in w.items()}
    m = w["s0"].shape[1]
    n_max = ns[-1]
    blocks = -(-n_max // _LOSS_BLOCK)
    k = _loss_lanes(m, n_max)
    lanes = -(-blocks // k) * k
    x = _lanes(inputs[:n_max, 0], lanes)
    y = _lanes(labels[:n_max, 0], lanes)
    # The rows q that end in each block, with their offsets in it.
    ends_in = {}
    for q, n in enumerate(ns):
        j, o = divmod(n - 1, _LOSS_BLOCK)
        ends_in.setdefault(j, []).append((q, o + 1))
    # Blocks (next s0, next s1, output) of the coefficients, each repeated
    # for the k lanes of a round (k_x, a row per block, is broadcast).  The
    # first half of k_ab multiplies the state's first half (s0, s1, s0) and
    # the second half its second (s1, s0, s1); a sum of two terms is exact
    # in either order.
    a, c = w["a"], w["c"]
    k_ab = np.stack(
        [np.broadcast_to(v, (k, m)) for v in (a[0], a[3], c[0], a[1], a[2], c[1])]
    )
    k_x = np.concatenate([w["b"], w["d"]])
    k_1 = np.stack([np.broadcast_to(v, (k, m)) for v in (*w["b_s"], *w["b_y"])])
    coef = (k_ab.reshape(-1), k_x, k_1.reshape(-1))
    rows = np.empty((max(1, min(_LOSS_BLOCK, _LOSS_CHUNK_ELEMENTS // (3 * k * m))), 3, k, m))
    # A rerun steps one lane, in the buffer of steps viewed one lane wide.
    one = (k_ab[:, 0].ravel(), k_x, k_1[:, 0].ravel())
    one_state, one_rows = np.empty(6 * m), rows.reshape(-1, 3, 1, m)
    state = np.empty(6 * k * m)
    ends = state[: 2 * k * m].reshape(2, k, m)
    carry = w["s0"]
    warm = min(_LOSS_WARM_UP_STEPS, _LOSS_BLOCK)
    xw = np.zeros((warm, k))
    sums = np.empty((len(ns), m))
    prefix = np.zeros(m)
    for l0 in range(0, blocks, k):
        real = range(min(k, blocks - l0))
        if k > 1:
            # Lane i warms up over the end of lane i-1; lane 0 starts from carry.
            _take_lanes(xw[:, 1:], x, l0, _LOSS_BLOCK - warm)
            state[:] = 0.0
            for s in range(0, warm, rows.shape[0]):
                _step_rows(coef, state, xw[s : s + rows.shape[0]], rows)
        ends[:, 0] = carry
        starts = ends.copy()
        state[2 * k * m :].reshape(2, -1)[...] = state[: 2 * k * m]
        steps = min(_LOSS_BLOCK, n_max - l0 * _LOSS_BLOCK)
        block_sums = _lane_sums(coef, state, x, y, l0, steps, rows, ends_in, sums)
        for i in real[1:]:
            if starts[:, i].tobytes() != ends[:, i - 1].tobytes():
                one_state.reshape(3, 2, m)[...] = ends[:, i - 1]
                steps = min(_LOSS_BLOCK, n_max - (l0 + i) * _LOSS_BLOCK)
                (block_sums[i],) = _lane_sums(one, one_state, x, y, l0 + i, steps, one_rows,
                                              ends_in, sums)
                ends[:, i] = one_state[: 2 * m].reshape(2, m)
        carry = ends[:, -1].copy()
        for i in real:
            for q, _ in ends_in.get(l0 + i, ()):
                sums[q] += prefix
            prefix += block_sums[i]
    return sums[:, :m_in] / np.array(ns, dtype=float)[:, None]
