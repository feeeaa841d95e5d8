import math

import numpy as np
import pytest

from stablepac import (
    StabilityConstants,
    activation,
    build_reference_generator,
    data_constants,
    gain_pair,
    generator_data_constants,
    rnn_constants,
    saturation_bound,
    seeded_rng,
    simulate,
    truncated_gaussian,
)
from stablepac.dynsys import RnnSystem


class TestDataConstants:
    def test_reference_generator_near_printed_values(self):
        consts = rnn_constants(build_reference_generator())
        dc = data_constants(consts, 1.27)
        # frozen oracle values; land within 2% of (sqrt(2), 2)
        assert dc.b_q == pytest.approx(1.4060463265472685, rel=1e-9)
        assert dc.theta_bar == pytest.approx(1.9882335515236065, rel=1e-9)
        assert abs(dc.b_q - math.sqrt(2)) / math.sqrt(2) < 0.02
        assert abs(dc.theta_bar - 2.0) / 2.0 < 0.02

    def test_memoryless_output(self):
        c = StabilityConstants(c=1.0, tau=0.4, l_v=0.0, l_gs=2.0, l_gv=0.7)
        dc = data_constants(c, 1.5)
        assert dc.b_q == pytest.approx(2.0 * 1.5 * 0.7, rel=1e-12)
        assert dc.theta_bar == 0.0

    def test_hand_substitution(self):
        c = StabilityConstants(c=1.0, tau=0.0, l_v=1.0, l_gs=1.0, l_gv=1.0)
        dc = data_constants(c, 0.5)
        assert dc.b_q == pytest.approx(2.0, rel=1e-12)
        assert dc.theta_bar == pytest.approx(1.0, rel=1e-12)

    def test_linear_in_e_inf(self):
        c = StabilityConstants(c=1.0, tau=0.3, l_v=0.8, l_gs=0.5, l_gv=0.2)
        base = data_constants(c, 0.7)
        doubled = data_constants(c, 1.4)
        assert doubled.b_q == 2.0 * base.b_q
        assert doubled.theta_bar == 2.0 * base.theta_bar

    def test_theta_bar_zero_iff_gain_chain_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            l_v = float(rng.choice([0.0, rng.uniform(0.1, 2)]))
            l_gs = float(rng.choice([0.0, rng.uniform(0.1, 2)]))
            c = StabilityConstants(
                c=1.0, tau=float(rng.uniform(0, 0.9)), l_v=l_v, l_gs=l_gs, l_gv=1.0
            )
            dc = data_constants(c, 1.0)
            assert (dc.theta_bar == 0.0) == (l_v * l_gs == 0.0)

    def test_invalid_e_inf_rejected(self):
        c = StabilityConstants(c=1.0, tau=0.0, l_v=1.0, l_gs=1.0, l_gv=1.0)
        with pytest.raises(ValueError):
            data_constants(c, 0.0)


class TestSaturationBound:
    def test_reference_generator(self):
        assert saturation_bound(build_reference_generator()) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    def test_unbounded_activation(self):
        sys = RnnSystem(
            a=np.zeros((2, 2)),
            b=np.ones((2, 1)),
            b_s=np.zeros(2),
            c=np.ones((1, 2)),
            d=np.ones((1, 1)),
            b_y=np.zeros(1),
            sigma_f=activation("relu"),
            sigma_g=activation("relu"),
        )
        assert saturation_bound(sys) is None

    def test_sigmoid_four_outputs(self):
        sys = RnnSystem(
            a=np.zeros((2, 2)),
            b=np.ones((2, 1)),
            b_s=np.zeros(2),
            c=np.ones((4, 2)),
            d=np.ones((4, 1)),
            b_y=np.zeros(4),
            sigma_f=activation("relu"),
            sigma_g=activation("sigmoid"),
        )
        assert saturation_bound(sys) == pytest.approx(2.0, rel=1e-12)

    def test_effective_constants_take_min(self):
        gen = build_reference_generator()
        dc = generator_data_constants(gen, 1.27)
        # formula value 1.406 is below the sqrt(2) cap here
        assert dc.b_q == pytest.approx(1.4060463265472685, rel=1e-9)
        # a larger noise bound pushes the formula above the cap
        dc_big = generator_data_constants(gen, 5.0)
        assert dc_big.b_q == pytest.approx(math.sqrt(2.0), rel=1e-12)


class TestEmpiricalAmplitude:
    def test_generator_outputs_within_bound(self):
        # simulated stacked outputs stay within min(formula, saturation)
        gen = build_reference_generator()
        dc = generator_data_constants(gen, 1.27)
        rng = seeded_rng(123)
        n = 1_000_000
        noise = truncated_gaussian(rng, 1.0, 1.27, 2 * n).reshape(n, 2)
        _, outputs = simulate(gen, np.zeros(2), noise)
        norms = np.linalg.norm(outputs, axis=1)
        assert float(np.max(norms)) <= dc.b_q


class TestGeneratorInfluence:
    def test_one_noise_vector_moves_the_output_sum_by_at_most_g(self):
        # G = 2 * e_inf * sqrt(n_v) * g bounds sum_t ||dw_t|| when one noise
        # vector of the reference generator moves inside the box
        # |e| <= e_inf: the output moves by at most g per unit of input
        # change, and the box's diameter is 2 * e_inf * sqrt(n_v).
        gen = build_reference_generator()
        e_inf, n = 1.27, 200
        big_g = 2.0 * e_inf * math.sqrt(gen.n_v) * gain_pair(rnn_constants(gen)).g
        assert big_g == pytest.approx(1.988, abs=5e-4)
        rng = seeded_rng(7)
        for _ in range(300):
            noise = truncated_gaussian(rng, 1.0, e_inf, n * gen.n_v).reshape(n, gen.n_v)
            moved = noise.copy()
            moved[rng.integers(n)] = rng.uniform(-e_inf, e_inf, gen.n_v)
            _, w = simulate(gen, np.zeros(gen.n_s), noise)
            _, w_moved = simulate(gen, np.zeros(gen.n_s), moved)
            assert np.sum(np.linalg.norm(w_moved - w, axis=1)) <= big_g
