import math

import numpy as np
import pytest

from stablepac import (
    NotStableError,
    RnnSystem,
    SingularCompositionError,
    StabilityConstants,
    activation,
    build_reference_generator,
    gain_pair,
    rnn_constants,
    series_compose,
    simulate,
    simulate_series,
)
from helpers import eig_spectral_norm, random_contractive_system


def random_constants(rng, tau_min=0.0):
    return StabilityConstants(
        c=float(rng.uniform(1, 5)),
        tau=float(rng.uniform(tau_min, 0.99)),
        l_v=float(rng.uniform(0, 3)),
        l_gs=float(rng.uniform(0, 3)),
        l_gv=float(rng.uniform(0, 3)),
    )


_VALID = dict(c=1.0, tau=0.5, l_v=1.0, l_gs=1.0, l_gv=1.0)


class TestStabilityConstants:
    # The certificate type is the only guard on tau < 1: gain_pair, the bound
    # exponents, burn_in_length and data_constants rely on it.
    @pytest.mark.parametrize("form", ["scalar", "array"])
    @pytest.mark.parametrize(
        "field, bad",
        [
            ("tau", 1.0),
            ("tau", 1.5),
            ("tau", -0.1),
            ("tau", math.nan),
            ("tau", math.inf),
            ("c", 0.5),
            ("c", math.inf),
            ("l_v", -1e-12),
            ("l_gs", math.inf),
            ("l_gv", math.nan),
        ],
    )
    def test_invalid_field_rejected(self, form, field, bad):
        fields = dict(_VALID, **{field: bad})
        if form == "array":
            # the bad value sits among valid ones, as in the seed facts' arrays
            fields = {k: np.array([_VALID[k], v, _VALID[k]]) for k, v in fields.items()}
        with pytest.raises(ValueError, match=rf"^{field} must"):
            StabilityConstants(**fields)


class TestRnnConstants:
    def test_reference_generator_against_eigen_oracle(self):
        gen = build_reference_generator()
        consts = rnn_constants(gen)
        # closed form for the symmetric A block: eigenvalues +-sqrt(.52^2+.23^2)
        assert consts.tau == pytest.approx(math.sqrt(0.52**2 + 0.23**2), rel=1e-10)
        assert consts.c == 1.0
        assert consts.l_v == pytest.approx(eig_spectral_norm(gen.b), rel=1e-9)
        assert consts.l_gs == pytest.approx(eig_spectral_norm(gen.c), rel=1e-9)
        assert consts.l_gv == pytest.approx(eig_spectral_norm(gen.d), rel=1e-9)
        # frozen oracle values
        assert consts.tau == pytest.approx(0.56859475903318, rel=1e-12)
        assert consts.l_v == pytest.approx(1.0610330298279718, rel=1e-9)
        assert consts.l_gs == pytest.approx(0.13730160428365085, rel=1e-9)
        assert consts.l_gv == pytest.approx(0.2158708473046893, rel=1e-9)

    def test_memoryless_system(self):
        rng = np.random.default_rng(0)
        sys = RnnSystem(
            a=np.zeros((2, 2)),
            b=rng.normal(size=(2, 2)),
            b_s=rng.normal(size=2),
            c=rng.normal(size=(1, 2)),
            d=rng.normal(size=(1, 2)),
            b_y=rng.normal(size=1),
            sigma_f=activation("relu"),
            sigma_g=activation("tanh"),
        )
        consts = rnn_constants(sys)
        assert consts.tau == 0.0 and consts.c == 1.0

    def test_unstable_rejected_with_value(self):
        sys = RnnSystem(
            a=1.2 * np.eye(2),
            b=np.ones((2, 1)),
            b_s=np.zeros(2),
            c=np.ones((1, 2)),
            d=np.ones((1, 1)),
            b_y=np.zeros(1),
            sigma_f=activation("relu"),
            sigma_g=activation("tanh"),
        )
        with pytest.raises(NotStableError) as exc:
            rnn_constants(sys)
        assert exc.value.value == pytest.approx(1.2, rel=1e-9)

    def test_sigmoid_rescues_large_weights(self):
        # sigmoid Lipschitz 0.25 certifies A with norm up to 4
        sys = RnnSystem(
            a=3.9 * np.eye(2),
            b=np.ones((2, 1)),
            b_s=np.zeros(2),
            c=np.ones((1, 2)),
            d=np.ones((1, 1)),
            b_y=np.zeros(1),
            sigma_f=activation("sigmoid"),
            sigma_g=activation("tanh"),
        )
        assert rnn_constants(sys).tau == pytest.approx(0.975, rel=1e-9)

    def test_l_v_scaling_conventions(self):
        sys = RnnSystem(
            a=np.eye(2) * 0.5,
            b=np.ones((2, 1)),
            b_s=np.zeros(2),
            c=np.ones((1, 2)),
            d=np.ones((1, 1)),
            b_y=np.zeros(1),
            sigma_f=activation("sigmoid"),
            sigma_g=activation("tanh"),
        )
        # l_v = Lip(sigma_f) * ||B||_2, with Lip(sigmoid) = 0.25
        norm_b = eig_spectral_norm(sys.b)
        assert rnn_constants(sys).l_v == pytest.approx(0.25 * norm_b, rel=1e-9)


class TestSeriesCompose:
    def test_worked_example(self):
        c = StabilityConstants(c=1.0, tau=0.25, l_v=1.0, l_gs=1.0, l_gv=1.0)
        out = series_compose(c, c)
        assert out.tau == pytest.approx(0.5, rel=1e-12)
        # frozen oracle values of the closed-form composition
        assert out.c == pytest.approx(1.7682563847635828, rel=1e-12)
        assert out.l_v == pytest.approx(4.362074079622538, rel=1e-12)
        assert out.l_gs == 1.0 and out.l_gv == 1.0
        # value printed for reference: G = -2/(e ln 0.25) ~ 0.5307
        assert -2.0 / (math.e * math.log(0.25)) == pytest.approx(0.530738, abs=1e-6)

    def test_second_block_ignores_input(self):
        rng = np.random.default_rng(3)
        c1 = random_constants(rng, tau_min=0.05)
        c2 = StabilityConstants(c=2.0, tau=0.5, l_v=0.0, l_gs=1.5, l_gv=0.5)
        out = series_compose(c1, c2)
        assert out.c == pytest.approx(math.hypot(c1.c, c2.c), rel=1e-12)
        assert out.l_v == pytest.approx(c1.l_v, rel=1e-12)

    def test_zero_lipschitz_chain(self):
        c1 = StabilityConstants(c=1.5, tau=0.5, l_v=0.0, l_gs=0.0, l_gv=0.0)
        c2 = StabilityConstants(c=2.0, tau=0.5, l_v=0.0, l_gs=0.0, l_gv=0.0)
        out = series_compose(c1, c2)
        assert out.c == pytest.approx(math.hypot(1.5, 2.0), rel=1e-12)
        assert out.tau == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_zero_tau_needs_explicit_opt_in(self):
        # there is no opt-in: t = 0 always raises
        c = StabilityConstants(c=1.0, tau=0.0, l_v=1.0, l_gs=1.0, l_gv=1.0)
        with pytest.raises(SingularCompositionError):
            series_compose(c, c)

    def test_composed_certificate_always_valid(self):
        rng = np.random.default_rng(77)
        for _ in range(10_000):
            c1 = random_constants(rng)
            c2 = random_constants(rng)
            if max(c1.tau, c2.tau) == 0.0:
                continue
            out = series_compose(c1, c2)
            assert out.c >= 1.0
            assert 0.0 <= out.tau < 1.0
            assert out.l_v >= 0 and out.l_gs >= 0 and out.l_gv >= 0
            assert np.isfinite([out.c, out.tau, out.l_v]).all()


class TestGainPair:
    def test_memoryless(self):
        c = StabilityConstants(c=1.0, tau=0.0, l_v=1.0, l_gs=1.0, l_gv=0.0)
        gh = gain_pair(c)
        assert gh.g == 1.0 and gh.h == 1.0

    def test_hand_arithmetic(self):
        c = StabilityConstants(c=1.0, tau=0.5, l_v=2.0, l_gs=1.0, l_gv=0.5)
        gh = gain_pair(c)
        assert gh.g == pytest.approx(4.5, rel=1e-12)
        assert gh.h == pytest.approx(8.0, rel=1e-12)

    def test_reference_generator_pipeline(self):
        gh = gain_pair(rnn_constants(build_reference_generator()))
        # frozen from the eigen-oracle pipeline
        assert gh.g == pytest.approx(0.5535615458850709, rel=1e-9)
        assert gh.h == pytest.approx(0.7827691147738138, rel=1e-9)

    def test_strictly_monotone_in_tau(self):
        taus = np.linspace(0.0, 0.95, 30)
        pairs = [
            gain_pair(StabilityConstants(c=1.0, tau=float(t), l_v=1.3, l_gs=0.7, l_gv=0.2))
            for t in taus
        ]
        gs = [p.g for p in pairs]
        hs = [p.h for p in pairs]
        assert all(b > a for a, b in zip(gs, gs[1:]))
        assert all(b > a for a, b in zip(hs, hs[1:]))


class TestCompositionSimulation:
    def test_cascade_equals_stacked_bit_exact_and_envelope_holds(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            sys1 = random_contractive_system(rng, tau_range=(0.5, 0.9))
            sys2 = random_contractive_system(
                rng, n_v=sys1.n_y, tau_range=(0.5, 0.9)
            )
            n = 50
            inputs = rng.uniform(-1, 1, size=(n, sys1.n_v))
            s01 = rng.normal(size=sys1.n_s)
            s02 = rng.normal(size=sys2.n_s)

            # block-by-block: run block 1 fully, then feed block 2
            st1, mid = simulate(sys1, s01, inputs)
            st2, out = simulate(sys2, s02, mid)
            stacked, mid2, out2 = simulate_series(sys1, sys2, s01, s02, inputs)
            assert np.array_equal(mid, mid2)
            assert np.array_equal(out, out2)
            assert np.array_equal(stacked, np.hstack([st1, st2]))

            # composed certificate decay envelope on the stacked state
            comp = series_compose(rnn_constants(sys1), rnn_constants(sys2))
            s01b = rng.normal(size=sys1.n_s)
            s02b = rng.normal(size=sys2.n_s)
            stacked_b, _, _ = simulate_series(sys1, sys2, s01b, s02b, inputs)
            gaps = np.linalg.norm(stacked - stacked_b, axis=1)
            envelope = comp.c * comp.tau ** np.arange(n) * gaps[0]
            assert np.all(gaps <= envelope + 1e-12)
