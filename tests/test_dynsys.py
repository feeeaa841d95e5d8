import csv
import math

import numpy as np
import pytest

from stablepac import (
    ConfigError,
    LossSpec,
    RnnSystem,
    Trajectory,
    activation,
    build_reference_generator,
    burn_in_length,
    infinite_horizon_loss,
    load_model,
    load_trajectory,
    rnn_constants,
    save_model,
    save_trajectory,
    seeded_rng,
    simulate,
    simulate_series,
    truncated_gaussian,
)
from stablepac import dynsys
from stablepac.certify import StabilityConstants
from stablepac.dynsys import _ACTIVATION_TABLE, _CHUNK_ROWS, _WARM_UP_STEPS
from stablepac.experiment import _DATA_BURN_IN_TOL
from helpers import benchmark_predictor, random_contractive_system

ACTIVATIONS = ("relu", "tanh", "sigmoid", "identity")


def reference_simulate(sys, s0, inputs):
    """Step-by-step recursion: the reference the stacked simulate must match bit for bit."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    s = np.asarray(s0, dtype=float)
    states = np.empty((x.shape[0], sys.n_s))
    outputs = np.empty((x.shape[0], sys.n_y))
    for t in range(x.shape[0]):
        states[t] = s
        outputs[t] = sys.sigma_g(sys.c @ s + sys.d @ x[t] + sys.b_y)
        s = sys.sigma_f(sys.a @ s + sys.b @ x[t] + sys.b_s)
    return states, outputs


def assert_same_bits(got, want):
    """Equal shapes and equal bytes: unlike ==, tells -0.0 from +0.0."""
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def with_kinds(base, kind_f, kind_g, **arrays):
    """``base`` with the given activation kinds and any weights replaced."""
    weights = {f: getattr(base, f) for f in ("a", "b", "b_s", "c", "d", "b_y")}
    weights.update(arrays)
    return RnnSystem(
        **weights, sigma_f=activation(kind_f), sigma_g=activation(kind_g)
    )


def reference_save_trajectory(traj, path):
    """One csv.writer row per step: the bytes save_trajectory must reproduce."""
    m, p = traj.inputs.shape[1], traj.outputs.shape[1]
    header = ["t"] + [f"x_{i}" for i in range(m)] + [f"y_{i}" for i in range(p)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(traj.length):
            row = [str(t)]
            row += [repr(float(v)) for v in traj.inputs[t]]
            row += [repr(float(v)) for v in traj.outputs[t]]
            writer.writerow(row)


# Lengths around simulate's segments: none, one step, one segment and one
# row short of / just over it, two segments, and four with a short last one.
SEGMENT_LENGTHS = (0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS,
                   3 * _CHUNK_ROWS + 5)


def rotation(theta, radius=1.0):
    return radius * np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )


def never_forgetting_system(name):
    """A system whose state no short warm-up recovers to the last bit."""
    a, kind = {
        "rotation": (rotation(0.3), "identity"),
        "identity": (np.eye(2), "identity"),
        "rho=0.999": (rotation(0.3, 0.999), "tanh"),
    }[name]
    return RnnSystem(
        a=a, b=np.array([[0.1], [0.2]]), b_s=np.array([0.01, -0.02]), c=np.eye(2),
        d=np.array([[0.3], [-0.1]]), b_y=np.zeros(2),
        sigma_f=activation(kind), sigma_g=activation(kind),
    )


def contractive_with_kind(rng, kind, **shape):
    """A random certified system whose state and output maps are ``kind``: A is
    rescaled so that the state map's Lipschitz constant times ||A|| is kept."""
    base = random_contractive_system(rng, **shape)
    scale = base.sigma_f.lipschitz / activation(kind).lipschitz
    return with_kinds(base, kind, kind, a=scale * base.a)


@pytest.fixture
def lockstep_calls(monkeypatch):
    """(segments, steps) of every lockstep run that simulate makes, in order."""
    calls = []
    real = dynsys._lockstep

    def counting(sys, prev, rows):
        calls.append((prev.shape[0], rows.shape[1]))
        real(sys, prev, rows)

    monkeypatch.setattr(dynsys, "_lockstep", counting)
    return calls


class TestActivation:
    def test_table_values(self):
        assert activation("relu").lipschitz == 1.0
        assert activation("tanh").lipschitz == 1.0
        assert activation("sigmoid").lipschitz == 0.25
        assert activation("identity").lipschitz == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            activation("softplus")

    def test_sigmoid_is_logistic(self):
        sig = activation("sigmoid")
        x = np.linspace(-30, 30, 101)
        assert np.allclose(sig(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-12)

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_out_argument_gives_equal_results(self, kind):
        fn = _ACTIVATION_TABLE[kind][0]
        rng = np.random.default_rng(60)
        x = np.concatenate(
            [[-0.0, 0.0, 5e-324, -5e-324, 40.0, -40.0], rng.normal(0, 3, size=200)]
        )
        x_before = x.copy()
        plain = fn(x)
        out = np.full_like(x, np.nan)
        returned = fn(x, out=out)
        assert returned is out
        assert np.array_equal(out, plain)
        assert np.array_equal(np.signbit(out), np.signbit(plain))
        assert np.array_equal(x, x_before)

    def test_maps_keep_their_formulas_bit_for_bit(self):
        x = np.concatenate(
            [[-0.0, 0.0, 5e-324, -40.0], np.random.default_rng(61).normal(0, 3, size=200)]
        )
        expected = {
            "relu": np.maximum(x, 0.0),
            "tanh": np.tanh(x),
            "sigmoid": 0.5 * (1.0 + np.tanh(0.5 * x)),
            "identity": x,
        }
        for kind, want in expected.items():
            got = activation(kind)(x)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSimulate:
    def test_zero_system(self):
        sys = RnnSystem(
            a=np.zeros((2, 2)),
            b=np.zeros((2, 1)),
            b_s=np.zeros(2),
            c=np.zeros((1, 2)),
            d=np.zeros((1, 1)),
            b_y=np.zeros(1),
            sigma_f=activation("identity"),
            sigma_g=activation("identity"),
        )
        states, outputs = simulate(sys, np.zeros(2), np.ones((10, 1)))
        assert np.all(states == 0.0) and np.all(outputs == 0.0)
        assert states.shape == (10, 2) and outputs.shape == (10, 1)

    def test_pure_delay(self):
        sys = RnnSystem(
            a=np.zeros((2, 2)),
            b=np.eye(2),
            b_s=np.zeros(2),
            c=np.eye(2),
            d=np.zeros((2, 2)),
            b_y=np.zeros(2),
            sigma_f=activation("identity"),
            sigma_g=activation("identity"),
        )
        u = np.array([0.3, -1.2])
        states, _ = simulate(sys, np.zeros(2), np.stack([u, np.zeros(2)]))
        assert np.array_equal(states[1], u)

    def test_reference_generator_five_steps_bit_for_bit(self):
        # independent straight-line transcription of the recursion from the
        # printed weights; must agree with the production path bit for bit
        gen = build_reference_generator()
        e = truncated_gaussian(seeded_rng(0), 1.0, 1.27, 10).reshape(5, 2)
        _, out = simulate(gen, np.zeros(2), e)

        a = np.array([[0.52, 0.23], [0.23, -0.52]])
        b = np.array([[-0.82, -0.45], [0.36, -0.96]])
        bs = np.array([0.38, -0.06])
        c = np.array([[0.05, -0.10], [-0.11, 0.01]])
        d = np.array([[0.09, -0.11], [0.05, -0.16]])
        by = np.array([-0.53, -0.79])
        s = np.zeros(2)
        ref = np.empty((5, 2))
        for t in range(5):
            ref[t] = np.tanh(c @ s + d @ e[t] + by)
            s = np.maximum(a @ s + b @ e[t] + bs, 0.0)
        assert_same_bits(out, ref)

        # plain scalar arithmetic agrees to the last ulp
        s0 = s1 = 0.0
        for t in range(5):
            y0 = math.tanh(0.05 * s0 - 0.10 * s1 + 0.09 * e[t, 0] - 0.11 * e[t, 1] - 0.53)
            y1 = math.tanh(-0.11 * s0 + 0.01 * s1 + 0.05 * e[t, 0] - 0.16 * e[t, 1] - 0.79)
            assert abs(y0 - out[t, 0]) <= 5e-16 and abs(y1 - out[t, 1]) <= 5e-16
            n0 = max(0.0, 0.52 * s0 + 0.23 * s1 - 0.82 * e[t, 0] - 0.45 * e[t, 1] + 0.38)
            n1 = max(0.0, 0.23 * s0 - 0.52 * s1 + 0.36 * e[t, 0] - 0.96 * e[t, 1] - 0.06)
            s0, s1 = n0, n1

    def test_reference_generator_long_run_matches_step_loop(self):
        gen = build_reference_generator()
        e = truncated_gaussian(seeded_rng(4), 1.0, 1.27, 20_000).reshape(10_000, 2)
        states, outputs = simulate(gen, np.zeros(2), e)
        ref_states, ref_outputs = reference_simulate(gen, np.zeros(2), e)
        assert_same_bits(states, ref_states)
        assert_same_bits(outputs, ref_outputs)

    @pytest.mark.parametrize("kind_f", ACTIVATIONS)
    @pytest.mark.parametrize("kind_g", ACTIVATIONS)
    def test_random_systems_match_step_loop(self, kind_f, kind_g):
        rng = np.random.default_rng(ACTIVATIONS.index(kind_f) * 4 + ACTIVATIONS.index(kind_g))
        for n_s in range(1, 5):
            for n_v in range(1, 5):
                for n_y in range(1, 5):
                    base = random_contractive_system(rng, n_s=n_s, n_v=n_v, n_y=n_y)
                    sys = with_kinds(base, kind_f, kind_g)
                    s0 = rng.normal(size=n_s)
                    inputs = rng.uniform(-2, 2, size=(40, n_v))
                    states, outputs = simulate(sys, s0, inputs)
                    ref_states, ref_outputs = reference_simulate(sys, s0, inputs)
                    assert_same_bits(states, ref_states)
                    assert_same_bits(outputs, ref_outputs)

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_long_run_across_output_chunks_matches_step_loop(self, kind):
        # Every length around the output chunks and simulate's segments, with
        # the same kind for the state and the output map.
        rng = np.random.default_rng(40 + ACTIVATIONS.index(kind))
        for n_s in (1, 2, 3):
            sys = contractive_with_kind(rng, kind, n_s=n_s, n_v=2, n_y=2)
            s0 = rng.normal(size=n_s)
            inputs = rng.uniform(-2, 2, size=(max(SEGMENT_LENGTHS), 2))
            # The recursion is causal: every length's reference is a prefix
            # of the longest one.
            ref_states, ref_outputs = reference_simulate(sys, s0, inputs)
            for n in SEGMENT_LENGTHS:
                states, outputs = simulate(sys, s0, inputs[:n])
                assert states.shape == (n, n_s) and outputs.shape == (n, 2)
                assert_same_bits(states, ref_states[:n])
                assert_same_bits(outputs, ref_outputs[:n])

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    @pytest.mark.parametrize("layout,n_s", [("F", 2), ("F", 3), ("strided", 3)])
    def test_a_stepped_as_stored(self, kind, layout, n_s):
        # An F-ordered A, and a strided view that is neither C- nor
        # F-contiguous: the system stores a C-ordered copy, and simulate
        # steps with it as the step loop does.
        rng = np.random.default_rng(60 + n_s)
        for _ in range(20):
            base = random_contractive_system(rng, n_s=n_s, n_v=2, n_y=2)
            if layout == "F":
                a = np.asfortranarray(base.a)
            else:
                a = rng.normal(size=(2 * n_s, 2 * n_s))[::2, ::2]
                a[...] = base.a
            assert not a.flags.c_contiguous
            sys = with_kinds(base, kind, kind, a=a)
            assert sys.a.flags.c_contiguous
            assert np.array_equal(sys.a, a)
            s0 = rng.normal(size=n_s)
            inputs = rng.uniform(-2, 2, size=(200, 2))
            states, outputs = simulate(sys, s0, inputs)
            ref_states, ref_outputs = reference_simulate(sys, s0, inputs)
            assert_same_bits(states, ref_states)
            assert_same_bits(outputs, ref_outputs)

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    @pytest.mark.parametrize("n_s", [1, 2, 3])
    def test_signed_zero_preactivations_match_step_loop(self, kind, n_s):
        # Zero biases of both signs, zero inputs and a state of signed
        # zeros: with sigma(0) = 0, every pre-activation is exactly +0.0 or
        # -0.0, and the sign of each zero must come out as the step loop's.
        rng = np.random.default_rng(80 + n_s)
        signed_zeros = np.array([-0.0, 0.0, -0.0])[:n_s]
        for _ in range(10):
            base = random_contractive_system(rng, n_s=n_s, n_v=1, n_y=2)
            sys = with_kinds(
                base, kind, kind, b_s=signed_zeros, b_y=np.array([-0.0, 0.0])
            )
            inputs = np.zeros((5, 1))
            states, outputs = simulate(sys, signed_zeros, inputs)
            ref_states, ref_outputs = reference_simulate(sys, signed_zeros, inputs)
            assert_same_bits(states, ref_states)
            assert_same_bits(outputs, ref_outputs)
            if kind != "sigmoid":
                assert np.all(states == 0.0) and np.all(outputs == 0.0)

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_caller_arrays_not_written(self, kind):
        # One segment, then four, and four of a rotation, which reruns every
        # later segment over B v rows formed again.
        rng = np.random.default_rng(50)
        contractive = contractive_with_kind(rng, kind, n_s=2, n_v=2, n_y=1)
        long = 3 * _CHUNK_ROWS + 5
        cases = [(contractive, 50), (contractive, long), (never_forgetting_system("rotation"), long)]
        for sys, n in cases:
            s0 = rng.normal(size=2)
            inputs = rng.uniform(-2, 2, size=(n, sys.n_v))
            s0_before, inputs_before = s0.copy(), inputs.copy()
            states, outputs = simulate(sys, s0, inputs)
            assert_same_bits(s0, s0_before)
            assert_same_bits(inputs, inputs_before)
            # Every recorded state is the system's own, not the caller's s0.
            assert not np.shares_memory(states, s0)
            assert not np.shares_memory(states, inputs)
            assert not np.shares_memory(outputs, inputs)

    def test_series_matches_lockstep_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            sys1 = random_contractive_system(rng)
            sys2 = random_contractive_system(rng, n_v=sys1.n_y)
            s01, s02 = rng.normal(size=sys1.n_s), rng.normal(size=sys2.n_s)
            inputs = rng.uniform(-1, 1, size=(60, sys1.n_v))
            stacked, mid, out = simulate_series(sys1, sys2, s01, s02, inputs)
            st1, ref_mid = reference_simulate(sys1, s01, inputs)
            st2, ref_out = reference_simulate(sys2, s02, ref_mid)
            assert_same_bits(stacked, np.hstack([st1, st2]))
            assert_same_bits(mid, ref_mid)
            assert_same_bits(out, ref_out)

    def test_series_dimension_mismatch_rejected(self):
        gen = build_reference_generator()
        rng = np.random.default_rng(13)
        sys2 = random_contractive_system(rng, n_v=3)
        with pytest.raises(ValueError):
            simulate_series(gen, sys2, np.zeros(2), np.zeros(sys2.n_s), np.zeros((5, 2)))

    def test_dimension_mismatch_rejected(self):
        gen = build_reference_generator()
        with pytest.raises(ValueError):
            simulate(gen, np.zeros(3), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            simulate(gen, np.zeros(2), np.zeros((5, 3)))

    def test_tanh_outputs_strictly_inside_unit_box(self):
        # moderate pre-activations: tanh only reaches 1.0 in floating point
        # beyond |x| ~ 19, far outside this sweep
        rng = np.random.default_rng(3)
        for _ in range(20):
            sys = random_contractive_system(rng, tau_range=(0.2, 0.7))
            if sys.sigma_g.kind != "tanh":
                sys = RnnSystem(
                    a=sys.a, b=sys.b, b_s=sys.b_s, c=sys.c, d=sys.d, b_y=sys.b_y,
                    sigma_f=sys.sigma_f, sigma_g=activation("tanh"),
                )
            inputs = rng.uniform(-1, 1, size=(50, sys.n_v))
            _, outputs = simulate(sys, rng.normal(size=sys.n_s), inputs)
            assert np.all(np.abs(outputs) < 1.0)


class TestSegments:
    """simulate steps long inputs in segments; every byte must be the step loop's."""

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_signed_zeros_across_boundaries_match_step_loop(self, kind):
        # Zero biases of both signs, a start of signed zeros, and inputs that
        # stop after 100 steps: the states decay through subnormals to exact
        # zeros long before the first boundary, so every warm-up meets zeros,
        # whose signs must come out as the step loop's.
        rng = np.random.default_rng(130 + ACTIVATIONS.index(kind))
        for _ in range(5):
            base = contractive_with_kind(rng, kind, n_s=3, n_v=1, n_y=2, tau_range=(0.2, 0.5))
            sys = with_kinds(
                base, kind, kind, b_s=np.array([-0.0, 0.0, -0.0]), b_y=np.array([-0.0, 0.0])
            )
            inputs = np.zeros((3 * _CHUNK_ROWS + 5, 1))
            inputs[:100] = rng.uniform(-1, 1, size=(100, 1))
            s0 = np.array([-0.0, 0.0, -0.0])
            states, outputs = simulate(sys, s0, inputs)
            ref_states, ref_outputs = reference_simulate(sys, s0, inputs)
            assert_same_bits(states, ref_states)
            assert_same_bits(outputs, ref_outputs)

    @pytest.mark.parametrize("name", ["rotation", "identity", "rho=0.999"])
    def test_never_forgetting_systems_rerun_single_segments(self, name, lockstep_calls):
        sys = never_forgetting_system(name)
        rng = np.random.default_rng(150)
        s0 = rng.normal(size=2)
        inputs = rng.uniform(-1, 1, size=(3 * _CHUNK_ROWS + 5, 1))
        states, outputs = simulate(sys, s0, inputs)
        ref_states, ref_outputs = reference_simulate(sys, s0, inputs)
        assert_same_bits(states, ref_states)
        assert_same_bits(outputs, ref_outputs)
        # One warm-up run, one lockstep pass over the four segments, then
        # each of the three later segments rerun alone, and no more.
        (warm_k, warm_steps), (k, m), *reruns = lockstep_calls
        assert (warm_k, warm_steps, k) == (3, _WARM_UP_STEPS, 4)
        assert reruns == [(1, m)] * 2 + [(1, len(inputs) - 3 * m)]

    def test_reference_generator_needs_no_rerun_at_long_series_length(self, lockstep_calls):
        # The data of a 100 000-step cell: the warm-ups start every segment
        # exactly where the one before it ends, so no segment is rerun.
        gen = build_reference_generator()
        n = 100_000 + burn_in_length(rnn_constants(gen), 0.0, _DATA_BURN_IN_TOL)
        noise = truncated_gaussian(seeded_rng(0), 1.0, 1.27, 2 * n).reshape(n, 2)
        states, outputs = simulate(gen, np.zeros(2), noise)
        ref_states, ref_outputs = reference_simulate(gen, np.zeros(2), noise)
        assert_same_bits(states, ref_states)
        assert_same_bits(outputs, ref_outputs)
        k = -(-n // _CHUNK_ROWS)
        assert lockstep_calls == [(k - 1, _WARM_UP_STEPS), (k, -(-n // k))]


class TestBurnInLength:
    def test_boundary_case(self):
        # factor = 0.5 + 1/(1-0.5) = 2.5, tol = 2.5 * 2^-20: smallest T is 20
        consts = StabilityConstants(c=1.0, tau=0.5, l_v=1.0, l_gs=1.0, l_gv=1.0)
        assert burn_in_length(consts, 0.5, 2.5 * 2.0**-20) == 20

    def test_tau_zero_one_step(self):
        consts = StabilityConstants(c=1.0, tau=0.0, l_v=1.0, l_gs=1.0, l_gv=1.0)
        assert burn_in_length(consts, 1.0, 1e-12) == 1

    def test_loose_tolerance_no_burn_in(self):
        consts = StabilityConstants(c=1.0, tau=0.5, l_v=1.0, l_gs=1.0, l_gv=1.0)
        assert burn_in_length(consts, 0.5, 10.0) == 0

    def test_smallest_t_property(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            consts = StabilityConstants(
                c=float(rng.uniform(1, 3)),
                tau=float(rng.uniform(0.05, 0.97)),
                l_v=1.0,
                l_gs=1.0,
                l_gv=1.0,
            )
            s0b = float(rng.uniform(0, 2))
            tol = float(10.0 ** rng.uniform(-10, 0))
            t = burn_in_length(consts, s0b, tol)
            factor = consts.c * (s0b + consts.c / (1 - consts.tau))
            assert factor * consts.tau**t <= tol
            if t > 0:
                assert factor * consts.tau ** (t - 1) > tol

    def test_unstable_certificate_unrepresentable(self):
        # the certificate type itself rejects tau >= 1, so burn_in_length can
        # never be reached with a non-contractive certificate
        with pytest.raises(ValueError):
            StabilityConstants(c=1.0, tau=1.0, l_v=1.0, l_gs=1.0, l_gv=1.0)


class TestSteadyState:
    # generate_dataset keeps simulate(...)[burn:] from the zero state as its
    # steady-state window; these tests pin that guarantee.
    def test_initial_state_forgotten_within_tolerance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sys = random_contractive_system(rng, tau_range=(0.2, 0.9))
            consts = rnn_constants(sys)
            tol = 1e-9
            s0 = rng.normal(size=sys.n_s)
            s0 /= max(np.linalg.norm(s0), 1.0)
            burn = burn_in_length(consts, float(np.linalg.norm(s0)), tol)
            inputs = rng.uniform(-1, 1, size=(burn + 30, sys.n_v))
            _, from_zero = simulate(sys, np.zeros(sys.n_s), inputs)
            _, from_s0 = simulate(sys, s0, inputs)
            gap = np.linalg.norm(from_zero[burn:] - from_s0[burn:], axis=1)
            assert np.max(gap) <= consts.l_gs * tol + 1e-15

    def test_constant_input_converges_to_fixed_point(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            sys = random_contractive_system(rng, tau_range=(0.2, 0.8))
            u = rng.uniform(-1, 1, size=sys.n_v)
            inputs = np.tile(u, (400, 1))
            _, out = simulate(sys, np.zeros(sys.n_s), inputs)
            # fixed-point iteration oracle on f(s, u)
            s = np.zeros(sys.n_s)
            for _ in range(10_000):
                s = sys.sigma_f(sys.a @ s + sys.b @ u + sys.b_s)
            expected = sys.sigma_g(sys.c @ s + sys.d @ u + sys.b_y)
            assert np.allclose(out[-1], expected, atol=1e-8)


    def test_burn_in_too_long_rejected(self):
        # the steady-state loss window must keep at least one step
        pred, _ = benchmark_predictor(np.zeros(14))
        data = Trajectory(inputs=np.zeros((5, 1)), outputs=np.zeros((5, 1)))
        square = LossSpec(kind="square")
        with pytest.raises(ValueError):
            infinite_horizon_loss(square, pred, data, 5)
        with pytest.raises(ValueError):
            infinite_horizon_loss(square, pred, data, -1)


class TestUecProbes:
    def test_contraction_envelope(self):
        # ||s(t) - s'(t)|| <= tau^t ||s0 - s0'|| for certified systems (c = 1)
        rng = np.random.default_rng(31)
        for _ in range(30):
            sys = random_contractive_system(rng, tau_range=(0.6, 0.95))
            tau = rnn_constants(sys).tau
            inputs = rng.uniform(-1, 1, size=(50, sys.n_v))
            s0a = rng.normal(size=sys.n_s)
            s0b = rng.normal(size=sys.n_s)
            sa, _ = simulate(sys, s0a, inputs)
            sb, _ = simulate(sys, s0b, inputs)
            gaps = np.linalg.norm(sa - sb, axis=1)
            envelope = np.linalg.norm(s0a - s0b) * tau ** np.arange(50)
            assert np.all(gaps <= envelope + 1e-12)

    def test_input_robustness_envelope(self):
        # fading-memory inequality for two input trajectories from equal starts
        rng = np.random.default_rng(32)
        for _ in range(20):
            sys = random_contractive_system(rng, tau_range=(0.3, 0.9))
            consts = rnn_constants(sys)
            n = 60
            v1 = rng.uniform(-1, 1, size=(n, sys.n_v))
            v2 = v1 + rng.uniform(-0.5, 0.5, size=(n, sys.n_v))
            s1, _ = simulate(sys, np.zeros(sys.n_s), v1)
            s2, _ = simulate(sys, np.zeros(sys.n_s), v2)
            dv = np.linalg.norm(v1 - v2, axis=1)
            for t in range(1, n):
                rhs = consts.l_v * sum(
                    consts.tau ** (k - 1) * dv[t - k] for k in range(1, t + 1)
                )
                assert np.linalg.norm(s1[t] - s2[t]) <= rhs + 1e-10


class TestModelFiles:
    def test_model_round_trip_bit_exact(self, tmp_path):
        gen = build_reference_generator()
        path = tmp_path / "model.json"
        save_model(gen, str(path))
        loaded = load_model(str(path))
        for field in ("a", "b", "b_s", "c", "d", "b_y"):
            assert np.array_equal(getattr(loaded, field), getattr(gen, field))
        assert loaded.sigma_f.kind == "relu" and loaded.sigma_g.kind == "tanh"

    def test_model_shape_declaration_checked(self, tmp_path):
        import json

        gen = build_reference_generator()
        from stablepac.dynsys import model_to_dict

        doc = model_to_dict(gen)
        doc["n_s"] = 7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(str(path))

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "cannot read"),
            ("t,x_0,y_0\r\n", "nonempty"),
            ("t,x_0,y_0\r\n0,1.0\r\n", "3 fields"),
            ("t,x_0\r\n0,1.0\r\n", "header"),
            ("t,y_0,x_0\r\n0,1.0,2.0\r\n", "header"),
            ("t,x_0,y_0\r\n0,1.0,abc\r\n", "abc"),
        ],
        ids=["missing", "header-only", "short-row", "no-outputs", "order", "not-float"],
    )
    def test_bad_trajectory_file_is_config_error(self, tmp_path, text, message):
        path = tmp_path / "traj.csv"
        if text is not None:
            path.write_bytes(text.encode())
        with pytest.raises(ConfigError, match=message) as info:
            load_trajectory(str(path))
        assert str(path) in str(info.value)

    def test_trajectory_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        traj = Trajectory(
            inputs=rng.normal(size=(30, 2)), outputs=rng.normal(size=(30, 3))
        )
        path = tmp_path / "traj.csv"
        save_trajectory(traj, str(path))
        loaded = load_trajectory(str(path))
        assert np.array_equal(loaded.inputs, traj.inputs)
        assert np.array_equal(loaded.outputs, traj.outputs)
        header = path.read_text().splitlines()[0]
        assert header == "t,x_0,x_1,y_0,y_1,y_2"

    @pytest.mark.parametrize("m,p", [(1, 1), (2, 3)])
    def test_trajectory_file_matches_csv_writer_across_chunks(self, tmp_path, m, p):
        rng = np.random.default_rng(10)
        n = 5000
        inputs = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-30, 30, size=(n, m))
        outputs = rng.normal(size=(n, p))
        inputs[0, 0], outputs[1, 0], outputs[2, 0] = -0.0, 0.0, 5e-324
        traj = Trajectory(inputs=inputs, outputs=outputs)
        path, ref_path = tmp_path / "traj.csv", tmp_path / "ref.csv"
        save_trajectory(traj, str(path))
        reference_save_trajectory(traj, str(ref_path))
        assert path.read_bytes() == ref_path.read_bytes()
        loaded = load_trajectory(str(path))
        assert np.array_equal(loaded.inputs, traj.inputs)
        assert np.array_equal(loaded.outputs, traj.outputs)
        assert np.signbit(loaded.inputs[0, 0])

    @pytest.mark.parametrize("n", [1, _CHUNK_ROWS + 1])
    def test_trajectory_file_with_one_row_chunk(self, tmp_path, n):
        # A trajectory of one row, and a last chunk of one row.
        rng = np.random.default_rng(11)
        traj = Trajectory(inputs=rng.normal(size=(n, 2)), outputs=rng.normal(size=(n, 1)))
        path, ref_path = tmp_path / "traj.csv", tmp_path / "ref.csv"
        save_trajectory(traj, str(path))
        reference_save_trajectory(traj, str(ref_path))
        assert path.read_bytes() == ref_path.read_bytes()
