"""State-space blocks of the affine-then-activation (RNN) shape, and their simulation.

A system is

    s(t+1) = sigma_f(A s(t) + B v(t) + b_s)
    y(t)   = sigma_g(C s(t) + D v(t) + b_y)

Steady-state behaviour (the trajectory the system settles into regardless of
the initial state) is approximated by running from the zero state over a
burn-in prefix whose length is derived from the contraction certificate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import NONNEGATIVE, POSITIVE, REAL, ConfigError, check
from .numerics import ZERO, check_finite_matrix

if TYPE_CHECKING:
    from .certify import StabilityConstants

# The most steps in one of simulate's segments, and the rows per chunk of
# its outputs' temporaries.
_CHUNK_ROWS = 4096

# Rows per chunk of save_trajectory: each chunk's field strings (about 70
# bytes each) set the writer's peak memory, not the trajectory's length.
_FILE_ROWS = 1024

# Steps of the zero-state warm-up before each later segment of simulate: on
# the reference generator's series of 1e5 and 1e6 steps, 64 left 3 of some
# 1 300 segment starts an ulp off (so those segments ran twice), 96 none.
_WARM_UP_STEPS = 128


def _sigmoid(x, out=None):
    # 0.5*(1+tanh(x/2)) is the logistic function, stable for large |x|
    t = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    return np.multiply(np.add(t, 1.0, out=out), 0.5, out=out)


# kind -> (elementwise map, global Lipschitz constant).  Each map takes an
# optional ``out`` array, as a ufunc does, so a step loop can write into its
# own buffers.
_ACTIVATION_TABLE: dict[str, tuple[Callable[..., np.ndarray], float]] = {
    "relu": (lambda x, out=None: np.maximum(x, ZERO, out=out), 1.0),
    "tanh": (np.tanh, 1.0),
    "sigmoid": (_sigmoid, 0.25),
    "identity": (lambda x, out=None: np.positive(x, out=out), 1.0),
}


@dataclass(frozen=True)
class Activation:
    """Elementwise activation; its global Lipschitz constant comes from the table."""

    kind: str

    def __post_init__(self):
        if self.kind not in _ACTIVATION_TABLE:
            raise ValueError(f"unknown activation kind {self.kind!r}")

    @property
    def lipschitz(self) -> float:
        return _ACTIVATION_TABLE[self.kind][1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _ACTIVATION_TABLE[self.kind][0](x)


def activation(kind: str) -> Activation:
    """Activation of ``kind``; unknown kinds raise ValueError."""
    return Activation(kind)


@dataclass(frozen=True)
class RnnSystem:
    """One affine-then-activation state-space block.

    Shapes: a (n_s, n_s), b (n_s, n_v), b_s (n_s,), c (n_y, n_s),
    d (n_y, n_v), b_y (n_y,).
    """

    a: np.ndarray
    b: np.ndarray
    b_s: np.ndarray
    c: np.ndarray
    d: np.ndarray
    b_y: np.ndarray
    sigma_f: Activation
    sigma_g: Activation

    def __post_init__(self):
        a = check_finite_matrix(self.a, "a")
        b = check_finite_matrix(self.b, "b")
        c = check_finite_matrix(self.c, "c")
        d = check_finite_matrix(self.d, "d")
        b_s = np.asarray(self.b_s, dtype=float)
        b_y = np.asarray(self.b_y, dtype=float)
        if not (np.all(np.isfinite(b_s)) and np.all(np.isfinite(b_y))):
            raise ValueError("bias vectors contain non-finite entries")
        n_s, n_v, n_y = a.shape[0], b.shape[1], c.shape[0]
        if a.shape != (n_s, n_s):
            raise ValueError("a must be square")
        if b.shape != (n_s, n_v) or b_s.shape != (n_s,):
            raise ValueError("b / b_s dimensions inconsistent with a")
        if c.shape != (n_y, n_s) or d.shape != (n_y, n_v) or b_y.shape != (n_y,):
            raise ValueError("c / d / b_y dimensions inconsistent")
        object.__setattr__(self, "a", np.ascontiguousarray(a))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "b_s", b_s)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b_y", b_y)

    @property
    def n_s(self) -> int:
        return self.a.shape[0]

    @property
    def n_v(self) -> int:
        return self.b.shape[1]

    @property
    def n_y(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """Observed input/output pairs of one run: inputs (n, n_x), outputs (n, n_y)."""

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        inputs = check_finite_matrix(self.inputs, "inputs")
        outputs = check_finite_matrix(self.outputs, "outputs")
        if inputs.shape[0] != outputs.shape[0]:
            raise ValueError("inputs and outputs must have the same length")
        if inputs.shape[0] == 0:
            raise ValueError("trajectory must be nonempty")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @property
    def length(self) -> int:
        return self.inputs.shape[0]


def _lockstep(sys: RnnSystem, prev: np.ndarray, rows: np.ndarray) -> None:
    """Step the recursion of k segments at once from the start states
    ``prev`` (k, n_s, 1) over ``rows`` (k, L, n_s, 1), which hold the B v
    rows and receive the states.  The stacked matmul runs one gemv per
    segment, the kernel of a lone product; b_s is a contiguous block of the
    buffer's shape, as a broadcast operand costs the iterator more."""
    sigma_f = _ACTIVATION_TABLE[sys.sigma_f.kind][0]
    b_s = np.broadcast_to(sys.b_s[:, None], prev.shape).copy()
    buf = np.empty(prev.shape)
    for s_t in rows.swapaxes(0, 1):
        np.matmul(sys.a, prev, out=buf)
        buf += s_t
        buf += b_s
        sigma_f(buf, out=s_t)
        prev = s_t


def simulate(
    sys: RnnSystem, s0: np.ndarray, inputs: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Run the recursion over ``inputs`` and return (states, outputs).

    states[t] is the state at time t (states[0] = s0) and outputs[t] the
    output at time t; both have the same length as the input list.  The
    outputs are written into ``out`` when it is given: a float64 (n, n_y)
    array that shares no memory with the inputs, or the float64 inputs
    array itself (n_y = n_v), since each chunk of outputs is written after
    its input rows are read for the last time.

    The n steps run in k = ceil(n / 4096) equal segments, stepped in
    lockstep, the last one padded with zero B v rows.  Segment 0 starts
    from s0; each later one from a short zero-state warm-up over the B v
    rows just before it, which a stable system forgets its start over.
    Then the boundaries are checked in order: where a segment's start
    differs in any byte from the end of the one before it, the start is set
    to that end and the segment alone is run again over its B v rows.  A
    segment started from the exact bytes of the state at its first step
    repeats the step loop's arithmetic, so by induction from segment 0
    every row is the step loop's, bit for bit, whether or not the system
    forgets.  For n <= 4096 there is one segment and no warm-up.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    s = np.asarray(s0, dtype=float)
    if s.shape != (sys.n_s,):
        raise ValueError(f"s0 must have dimension {sys.n_s}, got shape {s.shape}")
    if x.shape[1] != sys.n_v:
        raise ValueError(f"inputs must have dimension {sys.n_v}, got {x.shape[1]}")
    n = x.shape[0]
    if out is None:
        out = np.empty((n, sys.n_y))
    elif out.shape != (n, sys.n_y) or out.dtype != np.float64:
        raise ValueError(
            f"out must be float64 of shape {(n, sys.n_y)}, got {out.dtype} {out.shape}"
        )
    elif np.may_share_memory(out, x) and not (
        out.ctypes.data == x.ctypes.data and out.strides == x.strides
    ):
        raise ValueError("out must be the inputs array itself or share no memory with it")
    # Only the state recursion runs step by step.  B v(t), C s(t) and D v(t)
    # are stacked matmuls over all t: they run the same kernel per item as a
    # per-step product, so the result is bit-identical to a step-by-step loop
    # (a plain ``states @ c.T`` is not: BLAS gemm and gemv round differently).
    # Row t+1 of ``states`` holds B v(t) until the step overwrites it with the
    # state, and ``rows`` views them as (segment, step); a rerun segment gets
    # its B v rows back first.  The outputs are formed in chunks to bound
    # their temporaries, after the last rerun has read its inputs.
    x3 = x[:, :, None]
    k = max(1, -(-n // _CHUNK_ROWS))
    m = -(-n // k)
    states = np.zeros((k * m + 1, sys.n_s))
    states[0] = s
    np.matmul(sys.b, x3, out=states[1 : n + 1, :, None])
    rows = states[1:].reshape(k, m, sys.n_s, 1)
    starts = np.zeros((k, sys.n_s, 1))
    starts[0, :, 0] = s
    if k > 1:
        warm = rows[:-1, -_WARM_UP_STEPS:].copy()
        _lockstep(sys, starts[1:], warm)
        starts[1:] = warm[:, -1]
    _lockstep(sys, starts, rows)
    for j in range(1, k):
        if starts[j].tobytes() != rows[j - 1, -1].tobytes():
            starts[j] = rows[j - 1, -1]
            seg = rows[j : j + 1, : n - j * m]
            np.matmul(sys.b, x3[j * m : (j + 1) * m], out=seg[0])
            _lockstep(sys, starts[j : j + 1], seg)
    states = states[:n]
    for start in range(0, n, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        pre = np.matmul(sys.c, states[start:stop, :, None])[:, :, 0]
        pre += np.matmul(sys.d, x3[start:stop])[:, :, 0]
        pre += sys.b_y
        out[start:stop] = sys.sigma_g(pre)
    return states, out


def simulate_series(
    sys1: RnnSystem,
    sys2: RnnSystem,
    s0_1: np.ndarray,
    s0_2: np.ndarray,
    inputs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulation of two blocks in series (output of sys1 drives sys2).

    Returns (stacked_states, mid_outputs, outputs) where stacked_states[t] is
    the concatenated state [s1(t); s2(t)].  sys1 runs first and its outputs
    drive sys2, which is exactly the cascade's per-step arithmetic.
    """
    if sys1.n_y != sys2.n_v:
        raise ValueError("output dimension of sys1 must match input dimension of sys2")
    states1, mid = simulate(sys1, s0_1, inputs)
    states2, out = simulate(sys2, s0_2, mid)
    return np.hstack([states1, states2]), mid, out


def burn_in_length(consts: "StabilityConstants", s0_bound: float, tol: float) -> int:
    """Smallest T with c * tau^T * (s0_bound + c/(1-tau)) <= tol.

    The bracketed factor bounds the distance between any start state within
    ``s0_bound`` of the origin and the steady-state trajectory, whose norm is
    at most c/(1-tau) for unit-bounded inputs.
    """
    check("tol", tol, REAL, POSITIVE)
    check("s0_bound", s0_bound, REAL, NONNEGATIVE)
    factor = consts.c * (s0_bound + consts.c / (1.0 - consts.tau))
    if factor <= tol:
        return 0
    if consts.tau == 0.0:
        return 1
    # Closed-form estimate, then settle the boundary exactly.
    t = max(0, math.ceil(math.log(tol / factor) / math.log(consts.tau)))
    while t > 0 and factor * consts.tau ** (t - 1) <= tol:
        t -= 1
    while factor * consts.tau**t > tol:
        t += 1
    return t


# ---------------------------------------------------------------------------
# Model and trajectory files


# Model-file key of each array field of RnnSystem, in file order.
_MODEL_ARRAYS = {"a": "A", "b": "B", "b_s": "b_s", "c": "C", "d": "D", "b_y": "b_y"}


def save_model(sys: RnnSystem, path: str) -> None:
    doc = {"n_s": sys.n_s, "n_v": sys.n_v, "n_y": sys.n_y,
           "sigma_f": sys.sigma_f.kind, "sigma_g": sys.sigma_g.kind}
    doc.update((key, getattr(sys, field).tolist()) for field, key in _MODEL_ARRAYS.items())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> RnnSystem:
    """Read a model file; one that cannot be read or built, or whose declared
    n_s, n_v or n_y does not match its matrices, raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        sys = RnnSystem(
            **{field: np.array(doc[key], dtype=float) for field, key in _MODEL_ARRAYS.items()},
            sigma_f=activation(doc["sigma_f"]),
            sigma_g=activation(doc["sigma_g"]),
        )
        for key in ("n_s", "n_v", "n_y"):
            if key in doc and doc[key] != getattr(sys, key):
                raise ValueError(f"declared {key}={doc[key]} does not match matrix shapes")
        return sys
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path!r}: {exc.strerror}") from exc
    except KeyError as exc:
        raise ConfigError(f"model file {path!r} has no key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model file {path!r}: {exc}") from exc


def save_trajectory(traj: Trajectory, path: str) -> None:
    """Write a trajectory as CSV with header t, x_0.., y_0.., which
    ``np.loadtxt(path, delimiter=",", skiprows=1)`` reads back exactly.

    The bytes are those of ``csv.writer`` with each float's ``repr``: no
    field needs quoting (finite float reprs contain no comma, quote or line
    break) and rows end in ``\\r\\n``.  Each chunk's columns are formatted
    by ``orjson``, whose shortest round-trip digits (Ryu) are ``repr``'s.
    Where the magnitude lies in [1e-4, 1e15) its text is ``repr``'s too;
    every other field (0.0, -0.0, subnormals, and whatever ``repr`` writes
    in exponent form, where orjson writes ``1e-5`` for ``1e-05`` and
    ``1e16`` for ``1e+16``) is its ``repr``.  One split per column gives its
    fields from C; rows are the fields joined by commas.  Chunks of 1024
    rows bound the memory of those lists.
    """
    import orjson

    m, p = traj.inputs.shape[1], traj.outputs.shape[1]
    header = ["t"] + [f"x_{i}" for i in range(m)] + [f"y_{i}" for i in range(p)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, traj.length, _FILE_ROWS):
            stop = min(start + _FILE_ROWS, traj.length)
            columns = np.hstack((traj.inputs[start:stop], traj.outputs[start:stop])).T.copy()
            magnitude = np.abs(columns)
            outside = (magnitude < 1e-4) | (magnitude >= 1e15)
            fields = []
            for col, col_outside in zip(columns, outside):
                text = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY)
                col_fields = text[1:-1].decode().split(",")
                odd = np.flatnonzero(col_outside)
                for i, v in zip(odd.tolist(), col[odd].tolist()):
                    col_fields[i] = repr(v)
                fields.append(col_fields)
            rows = map(",".join, zip(map(str, range(start, stop)), *fields))
            fh.write("\r\n".join(rows) + "\r\n")
