"""Deterministic numerical primitives shared by the whole package.

Everything here is reproducible by construction: power iteration starts from
fixed vectors, means of exponentials are one numpy reduction over weights
max-shifted into (0, 1], and random sources are seeded PCG64 generators.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import INT, POSITIVE, REAL, DegenerateTruncationError, InstabilityError, check

# A read-only 0-d zero for np.maximum's ReLU: numpy converts a Python 0.0
# operand anew on every call, which doubles the cost of a ufunc call on a
# small array.
ZERO = np.zeros(())
ZERO.flags.writeable = False

# Power iteration on the Gram matrix: relative convergence tolerance on the
# Rayleigh quotient and hard iteration cap.
_POWER_TOL = 1e-12
_POWER_MAX_ITER = 10_000

# spectral_norm iterates unscaled only on matrices whose largest entry lies
# strictly inside this band: the norm lies between that entry and sqrt(size)
# times it, so w . w ~ norm^4 stays well inside the normal floats (2^+-1022).
_SAFE_PEAK_LO, _SAFE_PEAK_HI = 2.0**-200, 2.0**200

# Lyapunov series: stop when the increment norm drops below this, give up
# after this many doublings (2^40 terms).  Squaring a^(2^k) compounds rounding
# error like 2^k * eps; far beyond 2^40 the computed powers of a marginally
# stable a (a rotation) can decay and make the series look convergent.
_LYAP_INCREMENT_TOL = 1e-14
_LYAP_MAX_DOUBLINGS = 40


def seeded_rng(seed: int) -> np.random.Generator:
    """Return a PCG64-backed generator. Identical seed, identical stream."""
    return np.random.Generator(np.random.PCG64(seed))


def check_finite_array(value, name: str, shape: tuple) -> np.ndarray:
    """Coerce ``value`` to a float64 array and check it against ``shape``, one
    entry per axis: a length, or None for any length.  Raises ValueError
    naming ``name`` at the first failure: not numbers, the wrong number of
    axes, a wrong length, or a non-finite entry."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of numbers") from None
    if arr.ndim != len(shape):
        raise ValueError(f"{name} must be {len(shape)}-dimensional, got shape {arr.shape}")
    if any(want is not None and want != got for want, got in zip(shape, arr.shape)):
        expected = str(shape).replace("None", "*")  # (*, 2): any number of rows of 2
        raise ValueError(f"{name} must have shape {expected}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _power_iterate(gram: np.ndarray, v: np.ndarray) -> float:
    """Largest eigenvalue estimate of a symmetric PSD matrix from one nonzero start vector.

    One Gram product per iteration: ``w = gram @ v`` of the Rayleigh quotient
    is the next iteration's unnormalised iterate.  ``v`` and ``w`` are this
    call's own buffers, so the caller's start vector is never written.
    ``gram.dot(v, w)`` runs the gemv of ``np.matmul(gram, v, out=w)`` with
    less dispatch.
    """
    v = v / math.sqrt(v.dot(v))
    w = gram @ v
    gram_dot, v_dot, w_dot, divide = gram.dot, v.dot, w.dot, np.divide
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        wn = math.sqrt(w_dot(w))
        if wn == 0.0:
            # v lies in the kernel; this start contributes nothing.
            return 0.0
        divide(w, wn, v)
        gram_dot(v, w)
        lam_new = float(v_dot(w))
        if abs(lam_new - lam) <= _POWER_TOL * lam_new:
            return lam_new
        lam = lam_new
    return lam


def _gram_norm(m: np.ndarray) -> float:
    """Two-start power iteration on ``m.T @ m`` of a finite, nonempty matrix."""
    gram = m.T @ m
    n = gram.shape[0]
    v_ones = np.ones(n)
    v_harmonic = 1.0 / np.arange(1.0, n + 1.0)
    lam = max(_power_iterate(gram, v_ones), _power_iterate(gram, v_harmonic))
    return math.sqrt(max(lam, 0.0))


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value via power iteration on ``m.T @ m``.

    Deterministic: iterates from the all-ones vector, plus a second fixed
    start (1, 1/2, 1/3, ...) that cannot be orthogonal to the dominant
    eigenvector at the same time as the first, and takes the larger estimate.
    The iteration squares the scale twice, in the Gram matrix and in
    ``w . w``, so a matrix whose largest entry lies outside 2^+-200 is
    iterated after scaling by an exact power of two, and the result scaled
    back; a norm above the largest float is ``inf``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    # One reduction both rejects NaN and infinities and gives the scale.
    peak = np.maximum.reduce(np.abs(m), None)
    if _SAFE_PEAK_LO < peak < _SAFE_PEAK_HI:
        return _gram_norm(m)
    if not math.isfinite(peak):
        raise ValueError("matrix contains non-finite entries")
    if peak == 0.0:
        return 0.0
    exp = math.frexp(peak)[1]
    scaled = _gram_norm(np.ldexp(m, -exp))
    try:
        return math.ldexp(scaled, exp)
    except OverflowError:
        return math.inf


def spectral_norm_2x2(a00, a01, a10, a11):
    """Largest singular value of [[a00, a01], [a10, a11]], elementwise over arrays.

    Closed form (|z1| + |z2|) / 2 with z1 = (a00 + a11) + i(a10 - a01) and
    z2 = (a00 - a11) + i(a01 + a10); ``hypot`` keeps it free of cancellation
    at every scale, so it also serves as a certificate for tiny matrices.
    """
    return 0.5 * (np.hypot(a00 + a11, a10 - a01) + np.hypot(a00 - a11, a01 + a10))


def shifted_exp(values: Sequence[float]) -> tuple[float, np.ndarray]:
    """``(m, exp(v - m))``, m = max(v): weights in (0, 1], so no mean of them is 0."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0 or not np.all(np.isfinite(vals)):
        raise ValueError("values must be a nonempty 1-d array of finite numbers")
    shift = float(np.max(vals))
    return shift, np.exp(vals - shift)


def log_mean_exp(values: Sequence[float]) -> float:
    """ln((1/n) * sum(exp(v_i))) as ``m + ln(mean(exp(v - m)))``, m = max(v)."""
    shift, w = shifted_exp(values)
    return shift + math.log(float(np.mean(w)))


def truncated_gaussian(
    rng: np.random.Generator, std: float, bound: float, n: int
) -> np.ndarray:
    """n i.i.d. draws from N(0, std^2) conditioned on |value| <= bound.

    Plain rejection sampling in blocks of at most 2^14 draws; deterministic
    for a given generator state.  The values are the stream's first n
    accepted draws, whatever the block size.
    """
    check("std", std, REAL, POSITIVE)
    check("bound", bound, REAL, POSITIVE)
    check("n", n, INT, POSITIVE)
    if bound / std < 1e-6:
        raise DegenerateTruncationError(
            f"bound/std = {bound / std:.3e} is too small; rejection would stall"
        )
    out = np.empty(n)
    filled = 0
    # Oversample by the inverse acceptance probability to keep chunk count low.
    accept_p = math.erf(bound / (std * math.sqrt(2.0)))
    chunk = min(1 << 14, max(64, int(1.2 * n / accept_p) + 1))
    while filled < n:
        draws = rng.normal(0.0, std, size=chunk)
        kept = draws[np.abs(draws) <= bound]
        take = min(kept.size, n - filled)
        out[filled : filled + take] = kept[:take]
        filled += take
    return out


def discrete_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve a.T @ P @ a - P + q = 0, P = sum_k (a.T)^k q a^k, by doubling.

    Each step adds the next block of terms at once: with a_k = a^(2^k),
    P <- P + a_k.T @ P @ a_k and then a_k <- a_k @ a_k, so after k steps P
    holds the first 2^k terms.  Requires the spectral radius of ``a`` to be
    below one; divergence is detected on the series term a_k.T @ q @ a_k and
    reported as instability.
    """
    a = check_finite_array(a, "a", (None, None))
    q = check_finite_array(q, "q", (None, None))
    if a.shape[0] != a.shape[1] or a.shape != q.shape:
        raise ValueError("a and q must be square matrices of the same size")
    scale = max(float(np.linalg.norm(q)), 1.0)
    p = q.copy()
    a_k = a
    for _ in range(_LYAP_MAX_DOUBLINGS):
        term = float(np.linalg.norm(a_k.T @ q @ a_k))
        if not math.isfinite(term) or term > 1e12 * scale:
            raise InstabilityError("Lyapunov series diverges: spectral radius of a is >= 1")
        inc_block = a_k.T @ p @ a_k
        inc = float(np.linalg.norm(inc_block))
        p += inc_block
        if inc < _LYAP_INCREMENT_TOL * scale:
            # Symmetrise to remove floating-point drift.
            return 0.5 * (p + p.T)
        a_k = a_k @ a_k
    raise InstabilityError(
        f"Lyapunov series did not converge within 2^{_LYAP_MAX_DOUBLINGS} terms"
    )
