import math
import re

import numpy as np
import pytest

from stablepac import (
    ConfigError,
    DataConstants,
    GainPair,
    InstabilityError,
    LossSpec,
    RnnSystem,
    StabilityConstants,
    Trajectory,
    activation,
    empirical_loss,
    generate_dataset,
    infinite_horizon_loss,
    loss_lipschitz,
    loss_value,
    rnn_constants,
    simulate,
    transient_gap_bound,
)

from helpers import benchmark_predictor, doubling_system, zero_bias_contractive_predictor

SQUARE = LossSpec(kind="square")

# Finite data on which doubling_system's predictions overflow.
DIVERGING_DATA = Trajectory(inputs=np.ones((2000, 1)), outputs=np.zeros((2000, 1)))
OVERFLOW = r"^outputs overflow within 2000 steps: the states diverge$"


class TestLossValue:
    def test_square_identity(self):
        assert loss_value(SQUARE, np.array([0.3, -0.1]), np.array([0.3, -0.1])) == 0.0

    def test_square_hand_value(self):
        assert loss_value(SQUARE, np.array([1.0, 0.0]), np.zeros(2)) == 1.0

    def test_softmax_uniform(self):
        spec = LossSpec(kind="softmax_xent", classes=2)
        val = loss_value(spec, np.array([1.0, 0.0]), np.zeros(2))
        assert val == pytest.approx(math.log(2.0), rel=1e-12)

    def test_softmax_stable_for_large_logits(self):
        spec = LossSpec(kind="softmax_xent", classes=3)
        y = np.array([0.0, 1.0, 0.0])
        val = loss_value(spec, y, np.array([1000.0, 1000.0, -1000.0]))
        assert val == pytest.approx(math.log(2.0), rel=1e-9)

    def test_label_range_checked(self):
        spec = LossSpec(kind="softmax_xent", classes=2)
        with pytest.raises(ValueError):
            loss_value(spec, np.array([1.2, 0.0]), np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loss_value(SQUARE, np.zeros(2), np.zeros(3))

    def test_softmax_needs_two_classes(self):
        with pytest.raises(ValueError):
            LossSpec(kind="softmax_xent", classes=1)

    def test_softmax_classes_must_be_an_integer(self):
        with pytest.raises(ConfigError, match=r"^classes must be an integer, got 2\.5$"):
            LossSpec(kind="softmax_xent", classes=2.5)


class TestLossLipschitz:
    def test_square_unit_case(self):
        dc = DataConstants(b_q=1.0, theta_bar=0.0, e_inf=1.0)
        assert loss_lipschitz(SQUARE, dc, GainPair(g=1.0, h=0.0)) == 2.0

    def test_softmax_hand_value(self):
        dc = DataConstants(b_q=1.0, theta_bar=0.0, e_inf=1.0)
        spec = LossSpec(kind="softmax_xent", classes=2)
        expected = 2.0 * (2.0 + math.log(2.0) + 2.0)
        assert loss_lipschitz(spec, dc, GainPair(g=1.0, h=0.0)) == pytest.approx(
            expected, rel=1e-12
        )


class TestEmpiricalLoss:
    def _zero_predictor(self):
        return RnnSystem(
            a=np.zeros((2, 2)),
            b=np.zeros((2, 1)),
            b_s=np.zeros(2),
            c=np.zeros((1, 2)),
            d=np.zeros((1, 1)),
            b_y=np.zeros(1),
            sigma_f=activation("relu"),
            sigma_g=activation("identity"),
        )

    def test_zero_predictor_zero_labels(self):
        traj = Trajectory(inputs=np.ones((10, 1)), outputs=np.zeros((10, 1)))
        assert empirical_loss(SQUARE, self._zero_predictor(), np.zeros(2), traj) == 0.0

    def test_constant_zero_prediction_unit_labels(self):
        traj = Trajectory(inputs=np.ones((10, 1)), outputs=np.ones((10, 1)))
        assert empirical_loss(SQUARE, self._zero_predictor(), np.zeros(2), traj) == 1.0

    def test_determinism_on_benchmark_sample(self):
        data = generate_dataset(0, 30)
        rng = np.random.default_rng(17)
        sys, s0 = benchmark_predictor(rng.normal(0, 0.14, size=14))
        a = empirical_loss(SQUARE, sys, s0, data)
        b = empirical_loss(SQUARE, sys, s0, data)
        assert a == b

    def test_order_sensitivity(self):
        # time order matters: shifting the trajectory changes the value
        data = generate_dataset(3, 40)
        rng = np.random.default_rng(18)
        sys, s0 = benchmark_predictor(rng.normal(0, 0.14, size=14))
        shifted = Trajectory(
            inputs=np.roll(data.inputs, 7, axis=0),
            outputs=np.roll(data.outputs, 7, axis=0),
        )
        assert empirical_loss(SQUARE, sys, s0, data) != empirical_loss(
            SQUARE, sys, s0, shifted
        )

    def test_dimension_mismatch(self):
        traj = Trajectory(inputs=np.ones((10, 2)), outputs=np.ones((10, 1)))
        with pytest.raises(ValueError):
            empirical_loss(SQUARE, self._zero_predictor(), np.zeros(2), traj)

    def test_diverging_predictor_is_a_typed_error(self):
        # Not nan, and no RuntimeWarning under the suite's warnings-as-errors filter.
        with pytest.raises(InstabilityError, match=OVERFLOW):
            empirical_loss(SQUARE, doubling_system(), np.zeros(2), DIVERGING_DATA)


class TestInfiniteHorizonLoss:
    def test_zero_burn_in_equals_empirical_from_origin(self):
        data = generate_dataset(5, 50)
        rng = np.random.default_rng(19)
        sys, _ = benchmark_predictor(rng.normal(0, 0.14, size=14))
        assert infinite_horizon_loss(SQUARE, sys, data, 0) == empirical_loss(
            SQUARE, sys, np.zeros(2), data
        )

    @pytest.mark.parametrize(
        "burn_in,message",
        [
            (-1, "burn_in must be >= 0, got -1"),
            (1.5, "burn_in must be an integer, got 1.5"),
            (50, "burn_in must be < the trajectory length 50, got 50"),
        ],
        ids=["burn_in=-1", "burn_in=1.5", "burn_in=50"],
    )
    def test_bad_burn_in_rejected(self, burn_in, message):
        sys, _ = benchmark_predictor(np.zeros(14))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            infinite_horizon_loss(SQUARE, sys, generate_dataset(5, 50), burn_in)

    def test_diverging_predictor_is_a_typed_error(self):
        with pytest.raises(InstabilityError, match=OVERFLOW):
            infinite_horizon_loss(SQUARE, doubling_system(), DIVERGING_DATA, 1000)

    def test_steady_state_start_closes_the_gap(self):
        data = generate_dataset(6, 120)
        rng = np.random.default_rng(20)
        sys, _ = benchmark_predictor(rng.normal(0, 0.14, size=14))
        burn = 60
        window = Trajectory(inputs=data.inputs[burn:], outputs=data.outputs[burn:])
        states, _ = simulate(sys, np.zeros(2), data.inputs)
        s_star = states[burn]
        v_n = infinite_horizon_loss(SQUARE, sys, data, burn)
        l_hat = empirical_loss(SQUARE, sys, s_star, window)
        assert abs(v_n - l_hat) <= 1e-6

    def test_transient_gap_within_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            data = generate_dataset(int(rng.integers(0, 1000)), 110)
            x_sup = float(np.max(np.abs(data.inputs)))
            sys = zero_bias_contractive_predictor(rng, x_sup)
            consts = rnn_constants(sys)
            burn = 60
            n = 50
            window = Trajectory(inputs=data.inputs[burn:], outputs=data.outputs[burn:])
            s0 = rng.normal(0, 0.5, size=2)
            l_hat = empirical_loss(SQUARE, sys, s0, window)
            v_n = infinite_horizon_loss(SQUARE, sys, data, burn)
            # tanh output and |labels| < 1: loss Lipschitz constant 2*(1+1)
            l_ell = 4.0
            b_q = float(
                max(np.max(np.abs(data.inputs)), np.max(np.abs(data.outputs)))
            )
            bound = transient_gap_bound(consts, l_ell, b_q, float(np.linalg.norm(s0)), n)
            assert abs(l_hat - v_n) <= bound + 1e-6


class TestTransientGapBound:
    def test_no_transient(self):
        c = StabilityConstants(c=1.0, tau=0.5, l_v=0.0, l_gs=1.0, l_gv=0.0)
        assert transient_gap_bound(c, 1.0, 1.0, 0.0, 10) == 0.0

    def test_hand_value(self):
        # h = l_gs*l_v/(1-tau)^2 = 1 with l_v = 0.25
        c = StabilityConstants(c=1.0, tau=0.5, l_v=0.25, l_gs=1.0, l_gv=0.0)
        assert transient_gap_bound(c, 1.0, 1.0, 1.0, 10) == pytest.approx(0.4, rel=1e-12)

    def test_halves_when_n_doubles(self):
        c = StabilityConstants(c=1.2, tau=0.3, l_v=0.7, l_gs=0.9, l_gv=0.1)
        assert transient_gap_bound(c, 2.0, 1.5, 0.8, 40) == pytest.approx(
            transient_gap_bound(c, 2.0, 1.5, 0.8, 20) / 2.0, rel=1e-15
        )

    @pytest.mark.parametrize(
        "n,message",
        [(0, "n must be > 0, got 0"), (2.5, "n must be an integer, got 2.5")],
        ids=["n=0", "n=2.5"],
    )
    def test_bad_n_rejected(self, n, message):
        c = StabilityConstants(c=1.2, tau=0.3, l_v=0.7, l_gs=0.9, l_gv=0.1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            transient_gap_bound(c, 2.0, 1.5, 0.8, n)


class TestLossLipschitzChecks:
    def test_square_local_lipschitz(self):
        rng = np.random.default_rng(30)
        for _ in range(2000):
            dim = int(rng.integers(1, 4))
            y = rng.uniform(-1, 1, size=dim)
            y1 = rng.uniform(-2, 2, size=dim)
            y2 = rng.uniform(-2, 2, size=dim)
            amp = max(np.linalg.norm(y1 - y), np.linalg.norm(y2 - y))
            lhs = abs(loss_value(SQUARE, y, y1) - loss_value(SQUARE, y, y2))
            assert lhs <= 2.0 * amp * np.linalg.norm(y1 - y2) + 1e-12

    def test_softmax_gradient_dual_norm(self):
        # sup-norm of the gradient stays below K(2*||yhat||_inf + ln K + 2)
        rng = np.random.default_rng(31)
        eps = 1e-6
        for _ in range(2000):
            k = int(rng.integers(2, 6))
            spec = LossSpec(kind="softmax_xent", classes=k)
            # keep labels clear of the [0, 1] boundary so the stencil stays valid
            y = rng.uniform(0.001, 0.999, size=k)
            yhat = rng.uniform(-5, 5, size=k)
            grad = np.empty(2 * k)
            for i in range(k):
                yp, ym = y.copy(), y.copy()
                yp[i] += eps
                ym[i] -= eps
                grad[i] = (loss_value(spec, yp, yhat) - loss_value(spec, ym, yhat)) / (
                    2 * eps
                )
            for i in range(k):
                hp, hm = yhat.copy(), yhat.copy()
                hp[i] += eps
                hm[i] -= eps
                grad[k + i] = (loss_value(spec, y, hp) - loss_value(spec, y, hm)) / (
                    2 * eps
                )
            bound = k * (2.0 * np.max(np.abs(yhat)) + math.log(k) + 2.0)
            assert np.max(np.abs(grad)) <= bound + 1e-6
