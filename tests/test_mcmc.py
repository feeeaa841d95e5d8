"""The Metropolis-Hastings chain of ``_prior_cloud`` where the truncation binds.

At prior_sigma2 = 1 a N(0, 1) draw of A has ||A||_2 >= tau_max most of the
time, so the chain spends its run against the boundary of the stability
region.  The truncation touches only A = theta[0:4]; the target factorises,
and each of the ten other coordinates keeps its exact N(0, 1) marginal.
"""

import math

import numpy as np
import pytest

from stablepac.experiment import ChainSettings, ExperimentConfig, _prior_cloud
from stablepac.numerics import spectral_norm_2x2

from helpers import autocorrelation_time

WIDE = ExperimentConfig(
    n_grid=(1,),
    n_seeds=1,
    n_f=8000,
    prior_sigma2=1.0,
    chain=ChainSettings(proposal_std=0.3, burn_in=0, thin=1),
)
# Rows dropped before the moment checks: the chain starts at theta = 0, and
# its autocorrelation time at proposal_std 0.3 is ~100 steps.
SETTLE = 500


@pytest.fixture(scope="module")
def chain():
    # burn_in 0 and thin 1 keep every state the chain visits.
    return _prior_cloud(WIDE, 0)


def within_four_standard_errors(series, target):
    """Mean of a chain's per-row series against its stationary value.

    The standard error is sqrt(var / ESS) with ESS = rows / (integrated
    autocorrelation time); 7500 rows of this chain give ESS ~ 40-130, so
    ESS >= 30 is asserted before the test trusts the estimate.
    """
    ess = series.size / autocorrelation_time(series)
    assert ess >= 30
    stderr = math.sqrt(float(np.var(series)) / ess)
    assert abs(float(np.mean(series)) - target) < 4.0 * stderr


class TestMhSample:
    def test_standard_normal_moments(self, chain):
        # Pooled over the ten free coordinates: mean 0 and E[theta_i^2] = 1.
        # Truncating any of them (say, taking the norm of the wrong slice)
        # would pull the second moment far below 1.
        free = chain[SETTLE:, 4:]
        within_four_standard_errors(np.mean(free, axis=1), 0.0)
        within_four_standard_errors(np.mean(free**2, axis=1), 1.0)

    def test_detailed_balance_two_mode_mixture(self, chain):
        # The long-run mass ratio between the two half-lines theta_i > 1 and
        # theta_i <= 1 of a free coordinate matches the N(0, 1) target.
        above = np.mean(chain[SETTLE:, 4:] > 1.0, axis=1)
        expected = 0.5 * (1.0 - math.erf(1.0 / math.sqrt(2.0)))
        within_four_standard_errors(above, expected)

    def test_forbidden_region_never_visited(self, chain):
        # No state of the chain, burn-in included, has tau >= tau_max, though
        # the wide prior drives it up to the boundary.
        tau = spectral_norm_2x2(*chain[:, 0:4].T)
        assert np.all(tau < WIDE.tau_max)
        assert float(np.max(tau)) > 0.99
