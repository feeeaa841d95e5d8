import math

import numpy as np
import pytest

from helpers import eig_spectral_norm
from stablepac import (
    DegenerateTruncationError,
    InstabilityError,
    discrete_lyapunov,
    log_mean_exp,
    seeded_rng,
    spectral_norm,
    truncated_gaussian,
)
from stablepac.numerics import spectral_norm_2x2


class TestSpectralNorm:
    def test_symmetric_2x2(self):
        # eigenvalues of [[a, b], [b, -a]] are +-sqrt(a^2 + b^2)
        m = np.array([[0.52, 0.23], [0.23, -0.52]])
        expected = math.sqrt(0.52**2 + 0.23**2)
        assert spectral_norm(m) == pytest.approx(expected, rel=1e-12)
        assert spectral_norm(m) == pytest.approx(0.568594, abs=1e-6)

    def test_identity(self):
        assert spectral_norm(np.eye(2)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_start_vector_in_kernel(self):
        # the all-ones vector is exactly in the kernel of the Gram matrix here;
        # the second fixed start must still find the norm
        m = np.array([[1.0, -1.0]])
        assert spectral_norm(m) == pytest.approx(math.sqrt(2.0), rel=1e-10)

    def test_matches_eigensolve_on_random_matrices(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            m = rng.normal(0, 1, size=(rows, cols)) * rng.choice([0.1, 1.0, 10.0])
            expected = eig_spectral_norm(m)
            assert spectral_norm(m) == pytest.approx(expected, rel=1e-8, abs=1e-12)

    def test_relative_accuracy_at_every_scale(self):
        # The convergence test is relative, so small matrices are not
        # stopped early with an underestimated norm.
        rng = np.random.default_rng(77)
        for scale in 10.0 ** np.arange(-8, 3):
            for _ in range(200):
                m = scale * rng.normal(0, 1, size=(2, 2))
                expected = np.linalg.svd(m, compute_uv=False)[0]
                assert abs(spectral_norm(m) - expected) <= 1e-9 * expected

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestSpectralNorm2x2:
    @staticmethod
    def closed_form(ms):
        return spectral_norm_2x2(ms[:, 0, 0], ms[:, 0, 1], ms[:, 1, 0], ms[:, 1, 1])

    def test_matches_eigensolve_on_random_matrices(self):
        rng = np.random.default_rng(4321)
        scales = 10.0 ** rng.uniform(-8, 2, size=(2000, 1, 1))
        ms = scales * rng.normal(0, 1, size=(2000, 2, 2))
        got = self.closed_form(ms)
        for m, value in zip(ms, got):
            assert value == pytest.approx(eig_spectral_norm(m), rel=1e-12)

    def test_rotations_and_rank_one(self):
        rng = np.random.default_rng(99)
        angles = rng.uniform(0, 2 * math.pi, size=200)
        radii = 10.0 ** rng.uniform(-8, 2, size=200)
        rot = radii[:, None, None] * np.stack(
            [np.cos(angles), -np.sin(angles), np.sin(angles), np.cos(angles)], axis=1
        ).reshape(-1, 2, 2)
        u = rng.normal(0, 1, size=(200, 2, 1))
        v = rng.normal(0, 1, size=(200, 1, 2))
        rank_one = radii[:, None, None] * (u @ v)
        for ms in (rot, rank_one):
            for m, value in zip(ms, self.closed_form(ms)):
                assert value == pytest.approx(eig_spectral_norm(m), rel=1e-12)

    def test_scalar_arguments(self):
        assert spectral_norm_2x2(0.52, 0.23, 0.23, -0.52) == pytest.approx(
            math.sqrt(0.52**2 + 0.23**2), rel=1e-15
        )
        assert spectral_norm_2x2(0.0, 0.0, 0.0, 0.0) == 0.0


class TestLogMeanExp:
    def test_constant_inputs(self):
        assert log_mean_exp([0.0, 0.0]) == 0.0

    def test_shift_invariance_large_values(self):
        assert log_mean_exp([1000.0, 1000.0]) == pytest.approx(1000.0, abs=1e-12)
        # no overflow anywhere near the contracted magnitude
        assert log_mean_exp([1e6, 1e6 - 1.0]) == pytest.approx(
            1e6 + math.log((1 + math.exp(-1)) / 2), abs=1e-9
        )

    def test_hand_value(self):
        assert log_mean_exp([0.0, math.log(3.0)]) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_shift_property_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = rng.normal(0, 5, size=int(rng.integers(1, 40)))
            c = float(rng.normal(0, 100))
            assert log_mean_exp(v + c) == pytest.approx(
                log_mean_exp(v) + c, abs=1e-12 * max(1.0, abs(c))
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_mean_exp([])


class TestTruncatedGaussian:
    def test_bound_respected_everywhere(self):
        rng = seeded_rng(1)
        samples = truncated_gaussian(rng, 1.0, 1.27, 10_000)
        assert samples.shape == (10_000,)
        assert np.all(np.abs(samples) <= 1.27)

    def test_wide_truncation_is_nearly_gaussian(self):
        rng = seeded_rng(2)
        samples = truncated_gaussian(rng, 1.0, 1e6, 100_000)
        assert np.var(samples) == pytest.approx(1.0, rel=0.02)

    def test_determinism(self):
        a = truncated_gaussian(seeded_rng(42), 2.0, 3.0, 1000)
        b = truncated_gaussian(seeded_rng(42), 2.0, 3.0, 1000)
        assert np.array_equal(a, b)

    def test_degenerate_truncation_rejected(self):
        with pytest.raises(DegenerateTruncationError):
            truncated_gaussian(seeded_rng(0), 1.0, 1e-7, 10)


class TestDiscreteLyapunov:
    def test_zero_dynamics(self):
        p = discrete_lyapunov(np.zeros((2, 2)), np.eye(2))
        assert np.allclose(p, np.eye(2), atol=1e-14)

    def test_scalar_geometric_series(self):
        p = discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
        assert p[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_unstable_rejected(self):
        with pytest.raises(InstabilityError):
            discrete_lyapunov(1.2 * np.eye(2), np.eye(2))

    def test_marginally_stable_rejected(self):
        # rotation: increments never decay
        th = 0.3
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        with pytest.raises(InstabilityError):
            discrete_lyapunov(rot, np.eye(2))

    def test_residual_symmetry_and_definiteness(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            a = rng.normal(0, 1, size=(n, n))
            a *= 0.9 / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-3)
            m = rng.normal(0, 1, size=(n, n))
            q = m @ m.T + np.eye(n)
            p = discrete_lyapunov(a, q)
            residual = a.T @ p @ a - p + q
            assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(q)
            assert np.max(np.abs(p - p.T)) <= 1e-12 * np.linalg.norm(p)
            assert np.min(np.linalg.eigvalsh(p)) > 0
