"""State-space blocks of the affine-then-activation (RNN) shape, and their simulation.

A system is

    s(t+1) = sigma_f(A s(t) + B v(t) + b_s)
    y(t)   = sigma_g(C s(t) + D v(t) + b_y)

Steady-state behaviour (the trajectory the system settles into regardless of
the initial state) is approximated by running from the zero state over a
burn-in prefix whose length is derived from the contraction certificate.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigError
from .numerics import check_finite_matrix

if TYPE_CHECKING:
    from .certify import StabilityConstants

# Rows per chunk wherever a whole trajectory would need large temporaries
# (simulate's outputs and save_trajectory's row lists), and the most steps
# in one of simulate's segments.
_CHUNK_ROWS = 4096

# A read-only 0-d zero for the ReLU: numpy converts a Python 0.0 operand
# anew on every call, which doubles the cost of a ufunc call on a small array.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False

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
    "relu": (lambda x, out=None: np.maximum(x, _ZERO, out=out), 1.0),
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
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        outputs = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        if inputs.shape[0] != outputs.shape[0]:
            raise ValueError("inputs and outputs must have the same length")
        if inputs.shape[0] == 0:
            raise ValueError("trajectory must be nonempty")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(outputs))):
            raise ValueError("trajectory contains non-finite entries")
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
    sys: RnnSystem, s0: np.ndarray, inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run the recursion over ``inputs`` and return (states, outputs).

    states[t] is the state at time t (states[0] = s0) and outputs[t] the
    output at time t; both have the same length as the input list.

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
    # Only the state recursion runs step by step.  B v(t), C s(t) and D v(t)
    # are stacked matmuls over all t: they run the same kernel per item as a
    # per-step product, so the result is bit-identical to a step-by-step loop
    # (a plain ``states @ c.T`` is not: BLAS gemm and gemv round differently).
    # Row t+1 of ``states`` holds B v(t) until the step overwrites it with the
    # state, and ``rows`` views them as (segment, step); a rerun segment gets
    # its B v rows back first.  The outputs are formed in chunks to bound
    # their temporaries.
    n = x.shape[0]
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
    outputs = np.empty((n, sys.n_y))
    for start in range(0, n, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        pre = np.matmul(sys.c, states[start:stop, :, None])[:, :, 0]
        pre += np.matmul(sys.d, x3[start:stop])[:, :, 0]
        pre += sys.b_y
        outputs[start:stop] = sys.sigma_g(pre)
    return states, outputs


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
    if tol <= 0:
        raise ValueError("tol must be positive")
    if s0_bound < 0:
        raise ValueError("s0_bound must be nonnegative")
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


def model_to_dict(sys: RnnSystem) -> dict:
    return {
        "n_s": sys.n_s,
        "n_v": sys.n_v,
        "n_y": sys.n_y,
        "sigma_f": sys.sigma_f.kind,
        "sigma_g": sys.sigma_g.kind,
        "A": sys.a.tolist(),
        "B": sys.b.tolist(),
        "b_s": sys.b_s.tolist(),
        "C": sys.c.tolist(),
        "D": sys.d.tolist(),
        "b_y": sys.b_y.tolist(),
    }


def model_from_dict(doc: dict) -> RnnSystem:
    sys = RnnSystem(
        a=np.array(doc["A"], dtype=float),
        b=np.array(doc["B"], dtype=float),
        b_s=np.array(doc["b_s"], dtype=float),
        c=np.array(doc["C"], dtype=float),
        d=np.array(doc["D"], dtype=float),
        b_y=np.array(doc["b_y"], dtype=float),
        sigma_f=activation(doc["sigma_f"]),
        sigma_g=activation(doc["sigma_g"]),
    )
    for key in ("n_s", "n_v", "n_y"):
        if key in doc and doc[key] != getattr(sys, key):
            raise ValueError(f"declared {key}={doc[key]} does not match matrix shapes")
    return sys


def save_model(sys: RnnSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(sys), fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> RnnSystem:
    """Read a model file; one that cannot be read or built raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return model_from_dict(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path!r}: {exc.strerror}") from exc
    except KeyError as exc:
        raise ConfigError(f"model file {path!r} has no key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model file {path!r}: {exc}") from exc


def _trajectory_header(m: int, p: int) -> list[str]:
    return ["t"] + [f"x_{i}" for i in range(m)] + [f"y_{i}" for i in range(p)]


def save_trajectory(traj: Trajectory, path: str) -> None:
    """Write a trajectory as CSV with header t, x_0.., y_0.. (round-trip exact).

    The bytes are those of ``csv.writer``: no field needs quoting (finite
    float reprs contain no comma, quote or line break) and rows end in
    ``\\r\\n``.  Each chunk's columns are lists of floats, whose ``repr``
    is the floats' own reprs joined by ", " (none contains a comma), so one
    split per column gives its fields from C; rows are the fields joined by
    commas.  Chunks bound the memory of those lists.
    """
    header = _trajectory_header(traj.inputs.shape[1], traj.outputs.shape[1])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, traj.length, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, traj.length)
            columns = traj.inputs[start:stop].T.tolist()
            columns += traj.outputs[start:stop].T.tolist()
            fields = [repr(col)[1:-1].split(", ") for col in columns]
            rows = map(",".join, zip(map(str, range(start, stop)), *fields))
            fh.write("\r\n".join(rows) + "\r\n")


def load_trajectory(path: str) -> Trajectory:
    """Read a save_trajectory CSV; an unreadable or malformed file raises ConfigError."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        m = sum(1 for h in header if h.startswith("x_"))
        p = len(header) - 1 - m
        if min(m, p) < 1 or header != _trajectory_header(m, p):
            raise ValueError(f"header {header} is not t, x_0.., y_0..")
        if any(len(row) != m + p + 1 for row in rows):
            raise ValueError(f"every row needs {m + p + 1} fields")
        data = np.array([[float(v) for v in row[1:]] for row in rows]).reshape(-1, m + p)
        return Trajectory(inputs=data[:, :m], outputs=data[:, m:])
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"trajectory file {path!r}: {exc}") from exc
