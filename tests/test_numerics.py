import math

import numpy as np
import pytest

from helpers import eig_spectral_norm
from stablepac import (
    DegenerateTruncationError,
    InstabilityError,
    discrete_lyapunov,
    log_mean_exp,
    numerics,
    seeded_rng,
    spectral_norm,
    truncated_gaussian,
)
from stablepac.experiment import build_reference_generator
from stablepac.numerics import _power_iterate, spectral_norm_2x2


def reference_spectral_norm(m):
    """The two-product power iteration that ``_power_iterate`` replaced, kept verbatim."""

    def power_iterate(gram, v):
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            return 0.0
        v = v / nrm
        lam = 0.0
        for _ in range(numerics._POWER_MAX_ITER):
            w = gram @ v
            wn = float(np.linalg.norm(w))
            if wn == 0.0:
                return 0.0
            v = w / wn
            lam_new = float(v @ (gram @ v))
            if abs(lam_new - lam) <= numerics._POWER_TOL * lam_new:
                return lam_new
            lam = lam_new
        return lam

    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    gram = m.T @ m
    n = gram.shape[0]
    v_ones = np.ones(n)
    v_harmonic = 1.0 / np.arange(1.0, n + 1.0)
    lam = max(power_iterate(gram, v_ones), power_iterate(gram, v_harmonic))
    return math.sqrt(max(lam, 0.0))


def bit_identity_cases():
    """Matrices on which the one-product loop must return the reference's bits."""
    gen = build_reference_generator()
    cases = [gen.a, gen.b, gen.c, gen.d]
    rng = np.random.default_rng(20261018)
    # 2x2 blocks at the MH chain's scale (prior std sqrt(0.02) ~ 0.14)
    cases += [rng.normal(0.0, math.sqrt(0.02), size=(2, 2)) for _ in range(500)]
    for scale in 10.0 ** np.arange(-8, 3):
        for _ in range(40):
            rows, cols = (int(k) for k in rng.integers(1, 9, size=2))
            cases.append(scale * rng.normal(0.0, 1.0, size=(rows, cols)))
    cases += [
        np.zeros((3, 2)),
        np.eye(3),
        np.outer([1.0, -2.0, 0.5], [3.0, 1.0, -1.0, 2.0]),
        np.array([[1.0, -1.0]]),  # all-ones start in the kernel: the wn == 0 exit
        np.diag([1.0, 1.0 - 1e-9]),
        np.array([[0.99, 1e4], [0.0, 0.99]]),
    ]
    # Chain-scale rotations r * R(t) @ diag(1, 1 - eps) @ R(u): with
    # sigma_1 ~ sigma_2 the iteration takes the most steps, up to the cap
    # for eps near 1e-4; eps = 0 is an exact scaled rotation.
    for eps in [0.0, 0.0, *10.0 ** rng.uniform(-4, -1, size=20)]:
        t, u = rng.uniform(0.0, 2 * math.pi, size=2)
        cases.append(
            rng.uniform(0.05, 0.99) * rotation(t) @ np.diag([1.0, 1.0 - eps]) @ rotation(u)
        )
    return cases


def rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


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
        # stopped early with an underestimated norm; and matrices far from
        # 1 are iterated at an exact power-of-two scale, so neither the Gram
        # matrix nor w . w overflows (to 0.0 or NaN from about 1e77 up) or
        # underflows (to 0.0 from about 1e-90 down).
        rng = np.random.default_rng(77)
        shapes = [(2, 2), (3, 3), (1, 1), (2, 5), (4, 1), (1, 3), (6, 4)]
        for scale in 10.0 ** np.arange(-300, 301, 4):
            for k in range(28):
                m = scale * rng.normal(0, 1, size=shapes[k % len(shapes)])
                expected = np.linalg.svd(m, compute_uv=False)[0]
                assert abs(spectral_norm(m) - expected) <= 1e-9 * expected, (scale, m.shape)

    def test_norm_beyond_the_largest_float_is_inf(self):
        assert spectral_norm(np.full((2, 2), 1e308)) == math.inf
        assert spectral_norm(np.array([[1e308, 1e308]])) == pytest.approx(
            math.sqrt(2.0) * 1e308, rel=1e-12
        )

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestOneProductPowerIteration:
    def test_bit_identical_to_reference(self):
        for m in bit_identity_cases():
            assert spectral_norm(m) == reference_spectral_norm(m), m

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_bit_identical_at_iteration_cap(self, cap, monkeypatch):
        # the cap is read at call time by both loops
        monkeypatch.setattr(numerics, "_POWER_MAX_ITER", cap)
        for m in bit_identity_cases():
            assert spectral_norm(m) == reference_spectral_norm(m), m

    def test_caller_arrays_not_written(self):
        rng = np.random.default_rng(5)
        m = rng.normal(0.0, 1.0, size=(3, 3))
        gram = m.T @ m
        for start in (np.ones(3), 1.0 / np.arange(1.0, 4.0)):
            gram_before, start_before = gram.copy(), start.copy()
            _power_iterate(gram, start)
            assert np.array_equal(gram, gram_before)
            assert np.array_equal(start, start_before)


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

    def test_matches_ascending_loop_reference(self):
        # the reduction reorders the sum; a loop in index order is the reference
        rng = np.random.default_rng(8)
        for size in (1, 7, 300, 5000):
            v = rng.normal(0, 30, size=size) + float(rng.normal(0, 1e3))
            shift = float(np.max(v))
            acc = 0.0
            for x in v.tolist():
                acc += math.exp(x - shift)
            ref = shift + math.log(acc / size)
            assert log_mean_exp(v) == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_mean_exp([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            log_mean_exp([0.0, math.inf])


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

    @pytest.mark.parametrize(
        "std,bound", [(0.0, 1.27), (1.0, -1.0), (math.nan, 1.27), (1.0, math.nan)]
    )
    def test_nonpositive_or_nan_scale_rejected(self, std, bound):
        name = "bound" if std > 0 else "std"
        with pytest.raises(ValueError, match=rf"^{name} must be (a finite number|> 0), got "):
            truncated_gaussian(seeded_rng(0), std, bound, 10)

    def test_degenerate_truncation_rejected(self):
        with pytest.raises(DegenerateTruncationError):
            truncated_gaussian(seeded_rng(0), 1.0, 1e-7, 10)

    @pytest.mark.parametrize("std,bound,n", [(1.0, 1.27, 100_000), (1.0, 0.01, 3000)])
    def test_blocks_keep_the_one_chunk_values(self, std, bound, n):
        # The one-chunk loop that block-wise drawing replaced, kept verbatim.
        # Both keep the stream's first n accepted draws, over several blocks:
        # 1.2 * n / P(|e| <= bound) is about 1.5e5 and 4.5e5 draws here.
        def one_chunk(rng, std, bound, n):
            out = np.empty(n)
            filled = 0
            accept_p = math.erf(bound / (std * math.sqrt(2.0)))
            chunk = max(64, int(1.2 * n / accept_p) + 1)
            while filled < n:
                draws = rng.normal(0.0, std, size=chunk)
                kept = draws[np.abs(draws) <= bound]
                take = min(kept.size, n - filled)
                out[filled : filled + take] = kept[:take]
                filled += take
            return out

        got = truncated_gaussian(seeded_rng(9), std, bound, n)
        assert got.tobytes() == one_chunk(seeded_rng(9), std, bound, n).tobytes()

    def test_draws_at_most_one_block_at_a_time(self):
        # A bound far inside the noise accepts about 8e-6 of the draws; one
        # chunk of 1.2 * n / 8e-6 draws would hold 3e6 values for n = 20.
        sizes = []
        normal = np.random.Generator.normal

        class Recording(np.random.Generator):
            def normal(self, *args, size=None, **kwargs):
                sizes.append(size)
                return normal(self, *args, size=size, **kwargs)

        out = truncated_gaussian(Recording(np.random.PCG64(3)), 1.0, 1e-5, 20)
        assert out.shape == (20,) and np.all(np.abs(out) <= 1e-5)
        assert max(sizes) == 1 << 14


class TestDiscreteLyapunov:
    def test_zero_dynamics(self):
        p = discrete_lyapunov(np.zeros((2, 2)), np.eye(2))
        assert np.allclose(p, np.eye(2), atol=1e-14)

    def test_scalar_geometric_series(self):
        p = discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
        assert p[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.9999, 0.99999])
    def test_spectral_radius_near_one(self, rho):
        # 1/(1-rho^2) needs ~1e5..1e6 series terms; doubling needs 19 and 23 steps
        p = discrete_lyapunov(np.array([[rho]]), np.array([[1.0]]))
        assert p[0, 0] == pytest.approx(1.0 / (1.0 - rho * rho), rel=1e-9)

    def test_stable_non_normal_with_large_solution(self):
        # ||P|| ~ 2.5e13 exceeds the 1e12 divergence threshold, but every
        # series term stays below it, so the series must still be summed
        a = np.array([[0.99, 1e4], [0.0, 0.99]])
        p = discrete_lyapunov(a, np.eye(2))
        assert np.linalg.norm(p) > 1e13
        assert np.linalg.norm(a.T @ p @ a - p + np.eye(2)) <= 1e-12 * np.linalg.norm(p)

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
