"""The cloud loss pass: every predictor's mean squared loss on each data prefix.

The predictors are the benchmark's ReLU/tanh recurrent networks, two states,
one input and one output, given as the cloud's parameter rows as sampled
(``prefix_losses``) in the order of the named blocks of ``PARAM_BLOCKS``,
declared here because it is the step loop's row order.  Each loss is one
running sum of its steps in time order, the rule of ``loss.empirical_loss``.
The step loop runs in C (``_cloudloss.c``), compiled on the first pass and
cached under ``$XDG_CACHE_HOME/stablepac`` (default ``~/.cache/stablepac``);
the tanh stays numpy's.
"""

from __future__ import annotations

import functools
import math
import os
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import INT, KernelBuildError, check

# Cap on the elements of the pass's buffer of steps, (steps, samples) output
# pre-activations; it holds at least one step.  A fixed 256-step buffer
# raised grid's peak RSS by 12%.
_LOSS_CHUNK_ELEMENTS = 1 << 15
# The command that builds the step loop, less its output and source files.
_COMPILE = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
_SOURCE = Path(__file__).with_name("_cloudloss.c")
# Blocks of the benchmark predictor's parameter vector in order, each row-major:
# RnnSystem's weights under their field names, then the initial state s0.  The
# order is the step loop's row order (_cloudloss.c), so it takes the rows whole.
PARAM_BLOCKS = {"a": (2, 2), "b": (2, 1), "b_s": (2,), "c": (1, 2), "d": (1, 1),
                "b_y": (1,), "s0": (2,)}


def _block_slices(shapes: dict[str, tuple[int, ...]]) -> tuple[dict[str, slice], int]:
    """Consecutive slices of named blocks in table order, and their total size."""
    slices, stop = {}, 0
    for name, shape in shapes.items():
        slices[name] = slice(stop, stop + math.prod(shape))
        stop = slices[name].stop
    return slices, stop


PARAM_SLICES, PARAM_DIM = _block_slices(PARAM_BLOCKS)


@functools.cache
def _kernel():
    """The step loop's C functions (step, add_squares), built once per source
    and compile command and cached by their SHA-256; a build writes a
    temporary file and renames it into place."""
    import hashlib
    from ctypes import CDLL, c_long, c_void_p

    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + "\0".join(_COMPILE).encode()).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "stablepac"
    lib = cache / f"cloudloss-{key}.so"
    if not lib.exists():
        import subprocess

        cache.mkdir(parents=True, exist_ok=True)
        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        cmd = [*_COMPILE, "-o", str(tmp), str(_SOURCE)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise KernelBuildError(f"cannot run {' '.join(cmd)}: {exc}") from exc
        if proc.returncode:
            tmp.unlink(missing_ok=True)
            raise KernelBuildError(
                f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr.strip()!r}"
            )
        os.replace(tmp, lib)
    dll = CDLL(str(lib))
    dll.step.argtypes = [c_long, c_long, c_void_p, c_long, c_void_p, c_void_p, c_void_p]
    dll.add_squares.argtypes = [c_long, c_long, c_void_p, c_void_p, c_long, c_void_p]
    dll.step.restype = dll.add_squares.restype = None
    return dll.step, dll.add_squares


def prefix_losses(
    thetas: np.ndarray, inputs: np.ndarray, labels: np.ndarray, ns: Sequence[int]
) -> np.ndarray:
    """Mean squared losses of every predictor of a cloud on each data prefix.

    ``thetas`` holds one predictor per row, (m, PARAM_DIM) with m >= 1, in
    the order of ``PARAM_BLOCKS``: A row-major, b, b_s, c, d, b_y, then the
    initial state s0.  ``inputs`` and ``labels`` are (steps, 1) float64
    columns.  Row k of the result holds the mean loss of each predictor over
    the first ``ns[k]`` steps, for ascending ``ns``: a sample's running sum
    of its squared errors in time order from 0.0, up to step n, divided by
    n.  No row depends on the other ns or on the pass's buffer sizes, so
    each equals a separate pass over its prefix bit for bit.  Elementwise
    arithmetic over the cloud: deterministic and independent of BLAS
    threading.  Per-sample empirical_loss sums by the same rule, and the two
    agree to rounding, exactly where simulate's products are exact: simulate
    may fuse a multiply-add through BLAS, and the C step loop never does.

    A Metropolis-Hastings chain keeps its state on every rejected proposal,
    so runs of consecutive rows are often equal.  Rows are compared as uint64
    words (so -0.0 and 0.0 differ); the first row of each run is gathered
    into the kernel's one copy of the cloud, (PARAM_DIM, distinct rows), and
    its losses fill the run's columns once the pass's buffers are freed.
    Every column is the one a pass over all m rows gives, bit for bit.

    The pass runs in time order, in buffers of at most
    ``_LOSS_CHUNK_ELEMENTS // distinct rows`` steps that end at every prefix
    offset.  The C step loop reads the inputs and labels in place, through
    their strides, forms each element in the order
    ``((k_s0*s0 + k_s1*s1) + k_x*x) + k_1`` and writes the output
    pre-activations; ``np.tanh`` maps them in place, and the C sum adds each
    squared error to its sample's running sum.
    """
    # The C loop reads PARAM_DIM rows of weights and states of at least one
    # sample, and ns[-1] rows of one input and one label column: check the
    # shapes and both lengths here.
    if thetas.ndim != 2 or thetas.shape[1] != PARAM_DIM or not thetas.shape[0]:
        raise ValueError(f"cloud must be (m >= 1, {PARAM_DIM}), got shape {thetas.shape}")
    if inputs.shape[1:] != (1,) or labels.shape[1:] != (1,):
        raise ValueError(f"data must be (n, 1) columns, got {inputs.shape} and {labels.shape}")
    length = min(inputs.shape[0], labels.shape[0])
    for i, n in enumerate(ns):
        check(f"ns[{i}]", n, INT)
    if not len(ns) or ns[0] < 1 or ns[-1] > length or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"prefix lengths {ns} must ascend strictly within 1..{length}")
    # The C functions take raw addresses: the cloud copy and the buffers are
    # C-contiguous float64, and the inputs and labels are read in place as
    # aligned float64s, row strides in whole doubles, checked here.
    if inputs.dtype != np.float64 or labels.dtype != np.float64:
        raise TypeError(
            f"inputs and labels must be float64, got {inputs.dtype} and {labels.dtype}"
        )
    x, y = inputs[:, 0], labels[:, 0]
    xs, ys = x.strides[0], y.strides[0]
    if not (x.flags.aligned and y.flags.aligned):
        raise ValueError(f"inputs and labels must be aligned float64s, row strides {xs} and {ys}")
    bits = np.asarray(thetas, dtype=np.float64).view(np.uint64)
    starts = np.ones(bits.shape[0], dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=starts[1:])
    # The one copy, (PARAM_DIM, distinct rows), gathered straight into the
    # kernel's layout: its weight rows, then the state rows it advances in
    # place.  (take or compress along the transpose's columns would first copy
    # the whole cloud C-contiguous.)
    rows = bits[np.flatnonzero(starts), np.arange(PARAM_DIM)[:, None]].view(np.float64)
    m = rows.shape[1]
    out = np.empty((max(1, _LOSS_CHUNK_ELEMENTS // m), m))
    sums = np.empty((len(ns), m))
    acc = np.zeros(m)
    step, add_squares = _kernel()
    coef_p, out_p, acc_p, x_p, y_p = (a.ctypes.data for a in (rows, out, acc, x, y))
    state_p = rows[PARAM_SLICES["s0"]].ctypes.data
    t = 0
    for q, stop in enumerate(ns):
        for s in range(t, stop, out.shape[0]):
            b = min(out.shape[0], stop - s)
            step(b, m, x_p + s * xs, xs // 8, coef_p, state_p, out_p)
            np.tanh(out[:b], out[:b])
            add_squares(b, m, out_p, y_p + s * ys, ys // 8, acc_p)
        t = stop
        sums[q] = acc
    del rows, out, acc
    sums /= np.array(ns, dtype=float)[:, None]
    return sums.take(np.cumsum(starts) - 1, axis=1)
