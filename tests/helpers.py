"""Shared builders and oracles for the test suite."""

import math

import numpy as np

from stablepac import RnnSystem, Trajectory, activation
from stablepac.cloudloss import PARAM_BLOCKS, PARAM_SLICES


def eig_spectral_norm(m):
    """Independent oracle: largest singular value from an eigen-solve of m.T m."""
    m = np.asarray(m, dtype=float)
    return math.sqrt(max(np.max(np.linalg.eigvalsh(m.T @ m)), 0.0))


def benchmark_predictor(theta):
    """The benchmark's ReLU/tanh predictor and initial state from a parameter vector."""
    blocks = {
        name: theta[PARAM_SLICES[name]].reshape(shape)
        for name, shape in PARAM_BLOCKS.items()
    }
    s0 = blocks.pop("s0")
    return RnnSystem(**blocks, sigma_f=activation("relu"), sigma_g=activation("tanh")), s0


def doubling_system():
    """A = 2 I doubles the ReLU states every step: from the zero state they
    overflow after about a thousand steps."""
    return RnnSystem(
        a=2.0 * np.eye(2),
        b=np.ones((2, 1)),
        b_s=np.ones(2),
        c=np.ones((1, 2)),
        d=np.zeros((1, 1)),
        b_y=np.zeros(1),
        sigma_f=activation("relu"),
        sigma_g=activation("identity"),
    )


def read_trajectory(path):
    """A trajectory CSV read back: the columns after t, split at the count of
    x_ columns in the header."""
    with open(path, encoding="utf-8") as fh:
        m = sum(name.startswith("x_") for name in fh.readline().split(","))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return Trajectory(inputs=data[:, 1 : 1 + m], outputs=data[:, 1 + m :])


def autocorrelation_time(x):
    """Integrated autocorrelation time, summed up to the first lag whose
    autocorrelation is not positive."""
    x = x - x.mean()
    spectrum = np.fft.rfft(x, 2 * x.size)
    acf = np.fft.irfft(spectrum * np.conj(spectrum))[: x.size] / float(x @ x)
    cut = int(np.argmax(acf <= 0.0))
    return 1.0 + 2.0 * float(acf[1:cut].sum())


def random_contractive_system(rng, n_s=None, n_v=None, n_y=None, tau_range=(0.2, 0.95)):
    """Random block certified by the contraction condition, with scaled A."""
    n_s = n_s or int(rng.integers(1, 4))
    n_v = n_v or int(rng.integers(1, 3))
    n_y = n_y or int(rng.integers(1, 3))
    kind_f = rng.choice(["relu", "tanh", "identity", "sigmoid"])
    kind_g = rng.choice(["relu", "tanh", "identity", "sigmoid"])
    sigma_f = activation(kind_f)
    a = rng.normal(0, 1, size=(n_s, n_s))
    target_tau = rng.uniform(*tau_range)
    norm_a = np.linalg.norm(a, 2)
    if norm_a > 0:
        a *= target_tau / (sigma_f.lipschitz * norm_a)
    return RnnSystem(
        a=a,
        b=rng.normal(0, 1, size=(n_s, n_v)),
        b_s=rng.normal(0, 0.3, size=n_s),
        c=rng.normal(0, 1, size=(n_y, n_s)),
        d=rng.normal(0, 1, size=(n_y, n_v)),
        b_y=rng.normal(0, 0.3, size=n_y),
        sigma_f=sigma_f,
        sigma_g=activation(kind_g),
    )


def zero_bias_contractive_predictor(rng, x_sup, n_s=2, n_v=1, n_y=1):
    """Random certified predictor whose steady state obeys the amplitude bound.

    The state activation fixes sigma_f(0) = 0 and the state bias is kept
    within the input-gain envelope (lip * ||b_s|| <= l_v * x_sup), which makes
    the transient-gap inequality deterministic rather than statistical.
    """
    sigma_f = activation(str(rng.choice(["relu", "tanh", "identity"])))
    a = rng.normal(0, 1, size=(n_s, n_s))
    a *= rng.uniform(0.1, 0.9) / (sigma_f.lipschitz * max(np.linalg.norm(a, 2), 1e-9))
    b = rng.normal(0, 1, size=(n_s, n_v))
    l_v = sigma_f.lipschitz * np.linalg.norm(b, 2)
    b_s = rng.normal(0, 1, size=n_s)
    cap = 0.9 * l_v * x_sup / sigma_f.lipschitz
    if np.linalg.norm(b_s) > cap:
        b_s *= cap / np.linalg.norm(b_s)
    return RnnSystem(
        a=a,
        b=b,
        b_s=b_s,
        c=rng.normal(0, 1, size=(n_y, n_s)),
        d=rng.normal(0, 1, size=(n_y, n_v)),
        b_y=rng.normal(0, 0.3, size=n_y),
        sigma_f=sigma_f,
        sigma_g=activation("tanh"),
    )


def reference_batch_losses(thetas, inputs, labels):
    """Per-step cloud loop: the reference the cloud loss pass must match bit for bit.

    Each loss is one running sum of its squared errors in time order from 0.0.
    The blocks are read by name, each as one row per weight.
    """
    w = {name: thetas[:, cols].T for name, cols in PARAM_SLICES.items()}
    a, c, s = w["a"].reshape(2, 2, -1), w["c"], w["s0"]
    acc = np.zeros(thetas.shape[0])
    for x, y in zip(inputs[:, 0], labels[:, 0]):
        diff = np.tanh(c[0] * s[0] + c[1] * s[1] + w["d"][0] * x + w["b_y"][0]) - y
        acc += diff * diff
        s = np.maximum(a[:, 0] * s[0] + a[:, 1] * s[1] + w["b"] * x + w["b_s"], 0.0)
    return acc / inputs.shape[0]


def reference_final_states(thetas, inputs):
    """Step loop: the state of every predictor of the cloud after the inputs,
    each started from its own s0, as a (samples, 2) array."""
    w = {name: thetas[:, cols].T for name, cols in PARAM_SLICES.items()}
    a, s = w["a"].reshape(2, 2, -1), w["s0"]
    for x in inputs[:, 0]:
        s = np.maximum(a[:, 0] * s[0] + a[:, 1] * s[1] + w["b"] * x + w["b_s"], 0.0)
    return s.T
