import math

import numpy as np
import pytest

from stablepac import (
    DataConstants,
    GainPair,
    InvalidConfidenceError,
    SampleRecord,
    StabilityConstants,
    estimate_g1_g2,
    gain_pair,
    gibbs_estimates,
    gibbs_weights,
    pac_bound,
    pooled_psi,
    psi1_exponent,
    psi2_exponent,
    psi_hat,
)

DC_UNIT = DataConstants(b_q=1.0, theta_bar=0.0, e_inf=1.0)

from stablepac import LossSpec

SQUARE_SPEC = LossSpec(kind="square")


def make_record(rng, lambda_, n, data):
    consts = StabilityConstants(
        c=float(rng.uniform(1, 2)),
        tau=float(rng.uniform(0, 0.9)),
        l_v=float(rng.uniform(0, 1)),
        l_gs=float(rng.uniform(0, 1)),
        l_gv=float(rng.uniform(0, 1)),
    )
    gh = gain_pair(consts)
    l_ell = 2.0 * data.b_q * gh.g + 0.1
    s0_norm = float(rng.uniform(0, 1))
    return SampleRecord(
        theta=rng.normal(size=3),
        s0_norm=s0_norm,
        constants=consts,
        gh=gh,
        l_ell=l_ell,
        emp_loss=float(rng.uniform(0, 1)),
        psi1_exp=psi1_exponent(lambda_, n, l_ell, data, gh),
        psi2_exp=psi2_exponent(lambda_, n, l_ell, consts, data.b_q, gh, s0_norm),
    )


class TestPsiExponents:
    def test_psi1_hand_value(self):
        gh = GainPair(g=1.0, h=1.0)
        assert psi1_exponent(1.0, 2, 1.0, DC_UNIT, gh) == pytest.approx(4.0, rel=1e-12)

    def test_psi1_vanishing_rate(self):
        gh = GainPair(g=1.0, h=1.0)
        assert psi1_exponent(1e-9, 10, 1.0, DC_UNIT, gh) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(ValueError):
            psi1_exponent(0.0, 10, 1.0, DC_UNIT, gh)

    def test_psi1_sqrt_n_rule_cancels_n(self):
        gh = GainPair(g=0.7, h=0.3)
        a = psi1_exponent(math.sqrt(10), 10, 1.3, DC_UNIT, gh)
        b = psi1_exponent(math.sqrt(1000), 1000, 1.3, DC_UNIT, gh)
        assert a == pytest.approx(b, rel=1e-12)

    def test_psi2_hand_value(self):
        c = StabilityConstants(c=1.0, tau=0.5, l_v=0.25, l_gs=1.0, l_gv=0.0)
        gh = gain_pair(c)
        assert gh.h == pytest.approx(1.0, rel=1e-12)
        val = psi2_exponent(1.0, 10, 1.0, c, 1.0, gh, 1.0)
        assert val == pytest.approx(0.8, rel=1e-12)

    def test_psi2_zero_transient(self):
        c = StabilityConstants(c=1.0, tau=0.5, l_v=0.0, l_gs=1.0, l_gv=0.0)
        assert psi2_exponent(1.0, 10, 1.0, c, 1.0, gain_pair(c), 0.0) == 0.0

    def test_psi2_sqrt_n_rule_scales_as_inverse_sqrt(self):
        c = StabilityConstants(c=1.3, tau=0.4, l_v=0.5, l_gs=0.8, l_gv=0.1)
        gh = gain_pair(c)
        a = psi2_exponent(math.sqrt(100), 100, 1.0, c, 1.0, gh, 0.5)
        b = psi2_exponent(math.sqrt(400), 400, 1.0, c, 1.0, gh, 0.5)
        assert b == pytest.approx(a / 2.0, rel=1e-12)


class TestPsiHat:
    def _record_with_exponents(self, e1, e2):
        c = StabilityConstants(c=1.0, tau=0.0, l_v=0.0, l_gs=0.0, l_gv=0.0)
        return SampleRecord(
            theta=np.zeros(1),
            s0_norm=0.0,
            constants=c,
            gh=GainPair(g=0.0, h=0.0),
            l_ell=1.0,
            emp_loss=0.0,
            psi1_exp=e1,
            psi2_exp=e2,
        )

    def test_all_zero(self):
        recs = [self._record_with_exponents(0.0, 0.0)] * 3
        assert psi_hat(recs) == 0.0

    def test_log_mean_exp_oracle(self):
        recs = [
            self._record_with_exponents(0.0, 0.0),
            self._record_with_exponents(math.log(3.0), 0.0),
        ]
        assert psi_hat(recs) == pytest.approx(0.5 * math.log(2.0), rel=1e-12)

    def test_huge_exponents_stay_finite(self):
        recs = [
            self._record_with_exponents(1e4, 1e4),
            self._record_with_exponents(1e4 - 5.0, 1e4 - 5.0),
        ]
        val = psi_hat(recs)
        assert math.isfinite(val)
        assert val == pytest.approx(1e4 + math.log((1 + math.exp(-5)) / 2), rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            psi_hat([])

    def test_records_pool_like_arrays(self):
        rng = np.random.default_rng(12)
        e1, e2 = rng.uniform(-3, 30, size=(2, 50))
        recs = [self._record_with_exponents(a, b) for a, b in zip(e1, e2)]
        assert psi_hat(recs) == pooled_psi(e1, e2)


class TestGibbsWeights:
    def test_zero_losses(self):
        assert np.all(gibbs_weights(np.zeros(4), 3.0) == 1.0)

    def test_hand_values(self):
        beta = gibbs_weights(np.array([0.0, 0.5]), 2.0)
        assert beta[0] == 1.0
        assert beta[1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_doubling_lambda_squares_weights(self):
        losses = np.array([0.1, 0.7, 1.3])
        b1 = gibbs_weights(losses, 2.0)
        b2 = gibbs_weights(losses, 4.0)
        assert np.allclose(b2, b1**2, rtol=1e-12)


class TestGibbsEstimates:
    def test_uniform_weights_exact(self):
        losses = np.array([0.3, 0.9, 0.6])
        z, kl, post = gibbs_estimates(np.ones(3), losses)
        assert z == 1.0 and kl == 0.0
        assert post == float(np.mean(losses))

    def test_worked_case(self):
        beta = np.array([1.0, math.exp(-1.0)])
        losses = np.array([0.0, 1.0])
        z, kl, post = gibbs_estimates(beta, losses)
        # full-precision hand values of the three estimator formulas
        assert z == pytest.approx(1.4621171572600098, abs=1e-9)
        assert kl == pytest.approx(0.11094407167172732, abs=1e-9)
        assert post == pytest.approx(0.2689414213699951, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        beta = rng.uniform(0.1, 2.0, size=50)
        losses = rng.uniform(0, 1, size=50)
        base = gibbs_estimates(beta, losses)
        for c in (1e-6, 0.5, 3.0, 1e6):
            scaled = gibbs_estimates(c * beta, losses)
            assert scaled[1] == pytest.approx(base[1], abs=1e-12)
            assert scaled[2] == pytest.approx(base[2], rel=1e-12)

    def test_negative_kl_clamped_with_warning(self):
        # floating-point dust can push the estimator below zero
        beta = np.array(
            [
                1.0000000000000007,
                0.9999999999999987,
                0.9999999999999996,
                0.9999999999999981,
                0.9999999999999987,
            ]
        )
        with pytest.warns(UserWarning, match="clamping"):
            _, kl, _ = gibbs_estimates(beta, np.ones(5))
        assert kl == 0.0

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            gibbs_estimates(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


class TestPacBound:
    def test_unit_case(self):
        assert pac_bound(1.0, math.exp(-1.0), 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_hand_value(self):
        val = pac_bound(2.0, 0.025, 3.0, 1.0)
        assert val == pytest.approx((3.0 + math.log(40.0) + 1.0) / 2.0, rel=1e-12)
        assert val == pytest.approx(3.8444397, abs=1e-6)

    def test_doubling_lambda_halves(self):
        assert pac_bound(4.0, 0.1, 2.0, 1.0) == pytest.approx(
            pac_bound(2.0, 0.1, 2.0, 1.0) / 2.0, rel=1e-15
        )

    def test_confidence_range(self):
        for delta in (0.0, -0.1, 0.6, 1.0):
            with pytest.raises(InvalidConfidenceError):
                pac_bound(1.0, delta, 0.0, 0.0)
        # closed right end of the interval is allowed
        assert pac_bound(1.0, 0.5, 0.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-12)


class TestG1G2:
    def test_singleton_reduces_to_formulas(self):
        rng = np.random.default_rng(1)
        rec = make_record(rng, 2.0, 50, DC_UNIT)
        g1, g2 = estimate_g1_g2([rec], DC_UNIT)
        inner1 = DC_UNIT.b_q * (rec.gh.g + rec.gh.h)
        assert g1 == pytest.approx(2.0 * rec.l_ell**2 * inner1**2, rel=1e-12)
        inner2 = (
            2.0 * DC_UNIT.b_q * rec.gh.h
            + rec.s0_norm * rec.constants.l_gs / (1 - rec.constants.tau)
        )
        assert g2 == pytest.approx(2.0 * rec.l_ell * rec.constants.c * inner2, rel=1e-12)

    def test_two_samples_componentwise_max(self):
        rng = np.random.default_rng(2)
        a = make_record(rng, 2.0, 50, DC_UNIT)
        b = make_record(rng, 2.0, 50, DC_UNIT)
        ga, _ = estimate_g1_g2([a], DC_UNIT)
        gb, _ = estimate_g1_g2([b], DC_UNIT)
        g_both, _ = estimate_g1_g2([a, b], DC_UNIT)
        assert g_both == max(ga, gb)

    def test_fixed_constant_bound_dominates_pooled_bound(self):
        # sup-based rate constants can only give a looser gap bound
        rng = np.random.default_rng(3)
        n, lambda_ = 200, math.sqrt(200)
        recs = [make_record(rng, lambda_, n, DC_UNIT) for _ in range(100)]
        g1, g2 = estimate_g1_g2(recs, DC_UNIT)
        loose = pac_bound(
            lambda_, 0.05, 0.3, (lambda_**2 / n) * g1 + (lambda_ / n) * g2
        )
        tight = pac_bound(lambda_, 0.05, 0.3, psi_hat(recs))
        assert loose >= tight - 1e-12

    def test_catoni_consistency(self):
        rng = np.random.default_rng(4)
        for n in (10, 100, 1000):
            lambda_ = math.sqrt(n)
            recs = [make_record(rng, lambda_, n, DC_UNIT) for _ in range(50)]
            g1, g2 = estimate_g1_g2(recs, DC_UNIT)
            assert (lambda_**2 / n) * g1 + (lambda_ / n) * g2 >= psi_hat(recs) - 1e-12


class TestRateDecay:
    def test_quarter_n_halves_the_bound(self):
        # with lambda = sqrt(n) and fixed records, r_{4n}/r_n -> 1/2
        rng = np.random.default_rng(5)
        data = DataConstants(b_q=1.4, theta_bar=2.0, e_inf=1.27)
        kl = 0.8
        for n in (500, 2000, 10_000):
            recs_n = [make_record(rng, math.sqrt(n), n, data) for _ in range(200)]
            recs_4n = [
                SampleRecord(
                    theta=r.theta,
                    s0_norm=r.s0_norm,
                    constants=r.constants,
                    gh=r.gh,
                    l_ell=r.l_ell,
                    emp_loss=r.emp_loss,
                    psi1_exp=psi1_exponent(math.sqrt(4 * n), 4 * n, r.l_ell, data, r.gh),
                    psi2_exp=psi2_exponent(
                        math.sqrt(4 * n), 4 * n, r.l_ell, r.constants, data.b_q,
                        r.gh, r.s0_norm,
                    ),
                )
                for r in recs_n
            ]
            r_n = pac_bound(math.sqrt(n), 0.025, kl, psi_hat(recs_n))
            r_4n = pac_bound(math.sqrt(4 * n), 0.025, kl, psi_hat(recs_4n))
            assert 0.45 < r_4n / r_n < 0.55


class TestBoxSearch:
    def test_box_records_extend_the_supremum_estimate(self):
        from stablepac import box_search_records, generator_data_constants
        from stablepac.experiment import PARAM_DIM, build_reference_generator

        dc = generator_data_constants(build_reference_generator(), 1.27)
        lo = np.full(PARAM_DIM, -0.3)
        hi = np.full(PARAM_DIM, 0.3)
        recs = box_search_records(lo, hi, 500, 5, dc, 2.0, 50, SQUARE_SPEC, 0.995)
        assert 0 < len(recs) <= 500
        assert all(r.constants.tau < 0.995 for r in recs)
        g1_half, g2_half = estimate_g1_g2(recs[:100], dc)
        g1_all, g2_all = estimate_g1_g2(recs, dc)
        assert g1_all >= g1_half and g2_all >= g2_half

    def test_box_draws_follow_the_per_draw_stream(self):
        from stablepac import box_search_records, generator_data_constants, seeded_rng
        from stablepac.experiment import PARAM_DIM, build_reference_generator

        dc = generator_data_constants(build_reference_generator(), 1.27)
        lo = np.full(PARAM_DIM, -1.0)
        hi = np.full(PARAM_DIM, 1.0)
        rng = seeded_rng(3)
        draws = [rng.uniform(lo, hi) for _ in range(300)]
        kept = [d for d in draws if np.linalg.norm(d[:4].reshape(2, 2), 2) < 0.995]
        recs = box_search_records(lo, hi, 300, 3, dc, 2.0, 50, SQUARE_SPEC, 0.995)
        assert 0 < len(recs) < 300
        assert len(recs) == len(kept)
        assert all(np.array_equal(r.theta, d) for r, d in zip(recs, kept))

    def test_bad_box_rejected(self):
        from stablepac import box_search_records, generator_data_constants
        from stablepac.experiment import PARAM_DIM, build_reference_generator

        dc = generator_data_constants(build_reference_generator(), 1.27)
        with pytest.raises(ValueError):
            box_search_records(
                np.ones(PARAM_DIM), np.zeros(PARAM_DIM), 10, 0, dc, 1.0, 10,
                SQUARE_SPEC, 0.995,
            )
