import dataclasses
import math

import numpy as np
import pytest

from stablepac import ChainConfig, InvalidStartError, mh_sample


def std_normal_logpdf(x):
    return -0.5 * float(x @ x)


class TestMhSample:
    def test_standard_normal_moments(self):
        cfg = ChainConfig(steps=101_000, burn_in=1000, thin=1, proposal_std=2.4, seed=0)
        chain = mh_sample(std_normal_logpdf, np.zeros(1), cfg)
        assert chain.samples.shape == (100_000, 1)
        assert abs(float(np.mean(chain.samples))) < 0.05
        assert abs(float(np.var(chain.samples)) - 1.0) < 0.1

    def test_tiny_proposal_accepts_everything(self):
        cfg = ChainConfig(steps=2000, burn_in=0, thin=1, proposal_std=1e-12, seed=1)
        chain = mh_sample(std_normal_logpdf, np.zeros(3), cfg)
        assert chain.accepted / chain.steps > 0.999
        # the chain barely moves
        assert float(np.max(np.abs(chain.samples))) < 1e-9

    def test_same_seed_identical_chains(self):
        cfg = ChainConfig(steps=5000, burn_in=100, thin=3, proposal_std=0.8, seed=42)
        a = mh_sample(std_normal_logpdf, np.zeros(2), cfg)
        b = mh_sample(std_normal_logpdf, np.zeros(2), cfg)
        assert np.array_equal(a.samples, b.samples)
        assert a.accepted == b.accepted

    def test_retained_count_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            steps = int(rng.integers(2, 200))
            burn_in = int(rng.integers(0, steps))
            thin = int(rng.integers(1, 8))
            cfg = ChainConfig(
                steps=steps, burn_in=burn_in, thin=thin, proposal_std=1.0,
                seed=int(rng.integers(0, 1000)),
            )
            chain = mh_sample(std_normal_logpdf, np.zeros(1), cfg)
            assert chain.samples.shape[0] == (steps - burn_in) // thin
            # the retained states are those after steps burn_in + k*thin of
            # the same-seed chain that keeps every step
            every = dataclasses.replace(cfg, burn_in=0, thin=1)
            full = mh_sample(std_normal_logpdf, np.zeros(1), every)
            assert np.array_equal(chain.samples, full.samples[burn_in + thin - 1 :: thin])

    def test_forbidden_region_never_visited(self):
        def half_normal(x):
            if x[0] < 0:
                return -math.inf
            return -0.5 * float(x @ x)

        cfg = ChainConfig(steps=20_000, burn_in=100, thin=1, proposal_std=1.0, seed=3)
        chain = mh_sample(half_normal, np.array([0.5]), cfg)
        assert np.all(chain.samples[:, 0] >= 0)

    def test_invalid_start_rejected(self):
        def density(x):
            return -math.inf

        cfg = ChainConfig(steps=10, burn_in=0, thin=1, proposal_std=1.0, seed=0)
        with pytest.raises(InvalidStartError):
            mh_sample(density, np.zeros(1), cfg)

    def test_detailed_balance_two_mode_mixture(self):
        # long-run mass ratio between the two half-lines matches the target
        w1, w2 = 0.7, 0.3
        mu = 1.5

        def mixture(x):
            v = float(x[0])
            return float(
                np.logaddexp(
                    math.log(w1) - 0.5 * (v - mu) ** 2,
                    math.log(w2) - 0.5 * (v + mu) ** 2,
                )
            )

        cfg = ChainConfig(
            steps=1_000_000, burn_in=5000, thin=1, proposal_std=2.0, seed=11
        )
        chain = mh_sample(mixture, np.zeros(1), cfg)
        frac_pos = float(np.mean(chain.samples[:, 0] > 0))
        # P(x > 0) under the mixture, via the normal CDF
        phi = 0.5 * (1.0 + math.erf(mu / math.sqrt(2.0)))
        expected = w1 * phi + w2 * (1.0 - phi)
        ratio = (frac_pos / (1 - frac_pos)) / (expected / (1 - expected))
        assert abs(ratio - 1.0) < 0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(steps=10, burn_in=10, thin=1, proposal_std=1.0, seed=0)
        with pytest.raises(ValueError):
            ChainConfig(steps=10, burn_in=0, thin=0, proposal_std=1.0, seed=0)
        with pytest.raises(ValueError):
            ChainConfig(steps=10, burn_in=0, thin=1, proposal_std=0.0, seed=0)


class TestDiagnostics:
    def test_flat_target_accepts_all(self):
        cfg = ChainConfig(steps=500, burn_in=0, thin=1, proposal_std=1.0, seed=5)
        chain = mh_sample(lambda x: 0.0, np.zeros(2), cfg)
        assert chain.accepted == chain.steps

    def test_tuned_normal_in_sanity_band(self):
        cfg = ChainConfig(steps=20_000, burn_in=500, thin=1, proposal_std=2.4, seed=6)
        chain = mh_sample(std_normal_logpdf, np.zeros(1), cfg)
        assert 0.1 <= chain.accepted / chain.steps <= 0.7

    def test_constant_chain_zero_std(self):
        # every proposal lands at -inf, so the chain never leaves its start
        start = np.array([1.0, -2.0])

        def point_mass(x):
            return 0.0 if np.array_equal(x, start) else -math.inf

        cfg = ChainConfig(steps=50, burn_in=0, thin=1, proposal_std=1.0, seed=8)
        chain = mh_sample(point_mass, start, cfg)
        assert chain.accepted == 0
        assert chain.samples.shape == (50, 2)
        assert np.all(np.std(chain.samples, axis=0) == 0.0)
        assert np.allclose(np.mean(chain.samples, axis=0), [1.0, -2.0])

    def test_empty_chain_rejected(self):
        # a chain with no step, or a burn-in longer than the chain, keeps nothing
        with pytest.raises(ValueError):
            ChainConfig(steps=0, burn_in=0, thin=1, proposal_std=1.0, seed=0)
        with pytest.raises(ValueError):
            ChainConfig(steps=10, burn_in=12, thin=1, proposal_std=1.0, seed=0)
