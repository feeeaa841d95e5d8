import ast
import dataclasses
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from stablepac import (
    ExperimentConfig,
    LossSpec,
    StabilityConstants,
    Trajectory,
    build_reference_generator,
    burn_in_length,
    data_constants,
    gain_pair,
    generate_dataset,
    load_model,
    rnn_constants,
    run_experiment,
    run_seed,
    save_model,
    save_trajectory,
)
from stablepac.bound import (
    BoundReport, gibbs_log_estimates, pac_bound, pooled_psi, psi1_exponent, psi2_exponent,
)
from stablepac.cloudloss import PARAM_DIM, PARAM_SLICES, prefix_losses
from stablepac.errors import ConfigError, KernelBuildError
from stablepac.experiment import (
    _DATA_BURN_IN_TOL,
    ChainSettings,
    _cell,
    _chain_rng,
    _prior_cloud,
    _seed_facts,
    emit_curves,
    write_outputs,
)
from stablepac.loss import transient_gap_bound
from stablepac.numerics import seeded_rng, spectral_norm_2x2

from helpers import (
    autocorrelation_time, benchmark_predictor, reference_batch_losses, reference_final_states,
)


def scalar_terms(facts, n, lambda_, losses, delta):
    """(psi, kl, post_emp_loss, z_hat, r_n) of one (n, lambda) pair from the
    scalar bound functions."""
    psi = pooled_psi(
        psi1_exponent(lambda_, n, facts.l_ell, facts.data, facts.gains),
        psi2_exponent(
            lambda_, n, facts.l_ell, facts.constants, facts.data.b_q, facts.gains,
            facts.s0_norm,
        ),
    )
    z_hat, kl, post = gibbs_log_estimates(-lambda_ * losses, losses)
    return psi, kl, post, z_hat, pac_bound(lambda_, delta, kl, psi)


def reference_run_cell(cfg, seed, n, data):
    """One (seed, n) cell from its own chain, a separate loss pass over the
    prefix and the scalar bound functions; only the certificates are the
    seed facts'."""
    one = dataclasses.replace(cfg, n_grid=(n,))
    thetas = _prior_cloud(one, seed)
    facts = _seed_facts(one, thetas, data)
    lambda_ = cfg.lambda_for(n)
    losses = reference_batch_losses(thetas, data.inputs[:n], data.outputs[:n])
    ph, kl, post, z_hat, r_n = scalar_terms(facts, n, lambda_, losses, cfg.delta)
    return BoundReport(
        n=n, seed=seed, lambda_=lambda_, delta=cfg.delta, kl=kl, psi_hat=ph,
        r_n=r_n, post_emp_loss=post, total=post + r_n, z_hat=z_hat,
        n_samples=losses.size,
    )

SMALL = ExperimentConfig(
    n_grid=(5, 20),
    n_seeds=2,
    n_f=150,
    chain=ChainSettings(proposal_std=0.05, burn_in=50, thin=1, base_seed=0),
)


class TestReferenceGenerator:
    def test_printed_weights(self):
        gen = build_reference_generator()
        assert np.array_equal(gen.a, [[0.52, 0.23], [0.23, -0.52]])
        assert np.array_equal(gen.b, [[-0.82, -0.45], [0.36, -0.96]])
        assert np.array_equal(gen.b_s, [0.38, -0.06])
        assert np.array_equal(gen.c, [[0.05, -0.10], [-0.11, 0.01]])
        assert np.array_equal(gen.d, [[0.09, -0.11], [0.05, -0.16]])
        assert np.array_equal(gen.b_y, [-0.53, -0.79])
        assert gen.sigma_f.kind == "relu" and gen.sigma_g.kind == "tanh"

    def test_certificate_and_data_constants(self):
        consts = rnn_constants(build_reference_generator())
        assert consts.tau == pytest.approx(0.568594, abs=1e-6)
        dc = data_constants(consts, 1.27)
        assert abs(dc.b_q - math.sqrt(2)) / math.sqrt(2) < 0.02
        assert abs(dc.theta_bar - 2.0) / 2.0 < 0.02

    def test_model_file_round_trip_bit_exact(self, tmp_path):
        gen = build_reference_generator()
        path = tmp_path / "gen.json"
        save_model(gen, str(path))
        loaded = load_model(str(path))
        for f in ("a", "b", "b_s", "c", "d", "b_y"):
            assert np.array_equal(getattr(loaded, f), getattr(gen, f))


class TestGenerateDataset:
    def test_amplitude_bounds(self):
        traj = generate_dataset(0, 2000)
        stacked = np.hstack([traj.outputs, traj.inputs])
        assert np.all(np.linalg.norm(stacked, axis=1) <= math.sqrt(2.0))
        assert np.all(np.abs(traj.outputs) < 1.0)
        assert np.all(np.abs(traj.inputs) < 1.0)

    def test_determinism(self):
        a = generate_dataset(7, 100)
        b = generate_dataset(7, 100)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.outputs, b.outputs)

    def test_prefix_consistency(self):
        # the same seed generates the same process; longer runs extend it
        a = generate_dataset(3, 50)
        b = generate_dataset(3, 80)
        assert np.array_equal(a.inputs, b.inputs[:50])

    @pytest.mark.parametrize(
        "seed,n,e_std,e_inf,message",
        [
            (0, 0, 1.0, 1.27, "n must be > 0, got 0"),
            (0, 10, math.nan, 1.27, "e_std must be a finite number, got nan"),
            (0, 2.5, 1.0, 1.27, "n must be an integer, got 2.5"),
            (0, True, 1.0, 1.27, "n must be an integer, got True"),
            (1.5, 10, 1.0, 1.27, "seed must be an integer, got 1.5"),
            (-1, 10, 1.0, 1.27, "seed must be >= 0, got -1"),
            (0, 10, 1.0, math.inf, "e_inf must be a finite number, got inf"),
        ],
        ids=["n=0", "e_std=nan", "n=2.5", "n=True", "seed=1.5", "seed=-1", "e_inf=inf"],
    )
    def test_bad_arguments_rejected(self, seed, n, e_std, e_inf, message):
        # Each is checked under its own name before any draw.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_dataset(seed, n, e_std=e_std, e_inf=e_inf)

    def test_length_and_shapes(self):
        traj = generate_dataset(1, 37)
        assert traj.length == 37
        assert traj.inputs.shape == (37, 1) and traj.outputs.shape == (37, 1)

    def test_peak_allocation_is_two_arrays(self):
        # The noise and the states, each (n + burn, 2) doubles: the outputs
        # are written over the noise, and their chunk temporaries, the
        # rejection sampler's blocks and the warm-up rows are small beside
        # them.  A separate outputs array makes three.
        import tracemalloc

        n = 100_000
        burn = burn_in_length(rnn_constants(build_reference_generator()), 0.0,
                              _DATA_BURN_IN_TOL)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            generate_dataset(0, n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * (n + burn) * 2 * 8, peak


class TestParameterVector:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            theta = rng.normal(0, 0.2, size=PARAM_DIM)
            sys, s0 = benchmark_predictor(theta)
            flat = [sys.a, sys.b, sys.b_s, sys.c, sys.d, sys.b_y, s0]
            assert np.array_equal(np.concatenate([m.ravel() for m in flat]), theta)

    def test_layout(self):
        theta = np.arange(14.0)
        sys, s0 = benchmark_predictor(theta)
        assert np.array_equal(sys.a, [[0.0, 1.0], [2.0, 3.0]])
        assert np.array_equal(sys.b, [[4.0], [5.0]])
        assert np.array_equal(sys.b_s, [6.0, 7.0])
        assert np.array_equal(sys.c, [[8.0, 9.0]])
        assert np.array_equal(sys.d, [[10.0]])
        assert np.array_equal(sys.b_y, [11.0])
        assert np.array_equal(s0, [12.0, 13.0])

    @pytest.mark.parametrize("module", ["experiment.py", "cloudloss.py"])
    def test_module_reads_blocks_only_through_the_table(self, module):
        # A hand-written index into a parameter vector, or into the loss
        # kernel's rows, would fix a second copy of the layout; every block is
        # read through PARAM_SLICES.
        def int_literal(node):
            try:
                return isinstance(ast.literal_eval(node), int)
            except ValueError:
                return False

        def literal_index(node):
            if isinstance(node, ast.Tuple):
                return any(literal_index(elt) for elt in node.elts)
            if isinstance(node, ast.Slice):
                bounds = (node.lower, node.upper, node.step)
                return any(b is not None and int_literal(b) for b in bounds)
            return int_literal(node)

        path = Path(__file__).resolve().parent.parent / "src" / "stablepac" / module
        source = path.read_text(encoding="utf-8")
        sites = []
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Subscript):
                continue
            vector = node.value
            if isinstance(vector, ast.Attribute) and vector.attr == "T":
                vector = vector.value
            if (
                isinstance(vector, ast.Name)
                and vector.id in {"theta", "thetas", "th", "prop", "rows"}
                and literal_index(node.slice)
            ):
                sites.append(f"{node.lineno}: {ast.get_source_segment(source, node)}")
        assert not sites, f"parameter vector indexed by hand: {sorted(sites)}"


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.n_grid == (5, 9, 20, 50, 100, 200, 500, 1000)
        assert cfg.lambda_for(9) == pytest.approx(3.0, rel=1e-12)

    def test_zero_fixed_lambda_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(lambda_rule=0.0)

    def test_fixed_lambda_accepted(self):
        cfg = ExperimentConfig(lambda_rule=2.5)
        assert cfg.lambda_for(1000) == 2.5

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_grid=(10, 5))
        with pytest.raises(ValueError):
            ExperimentConfig(n_grid=())

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(delta=0.75)

    def test_bad_values_raise_config_error(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_f=0)
        with pytest.raises(ConfigError):
            ChainSettings(burn_in=-1)
        assert issubclass(ConfigError, ValueError)

    @pytest.mark.parametrize(
        "doc",
        [
            {"n_grid": [5.7, 9]},
            {"n_seeds": 1.5},
            {"n_seeds": True},
            {"n_f": 50.5},
            {"chain": {"burn_in": 10.5}},
            {"chain": {"thin": 2.0}},
            {"chain": {"base_seed": 0.5}},
        ],
    )
    def test_non_integral_counts_rejected(self, doc):
        with pytest.raises(ConfigError, match="must be an integer"):
            ExperimentConfig.from_dict(doc)

    def test_numpy_integer_counts_accepted(self):
        cfg = ExperimentConfig(
            n_grid=(np.int64(5), np.int32(9)),
            n_seeds=np.int64(2),
            n_f=np.int64(50),
            chain=ChainSettings(
                burn_in=np.int64(10), thin=np.int64(2), base_seed=np.int64(3)
            ),
        )
        assert cfg.n_grid == (5, 9)

    def test_unsupported_loss_rejected_at_config_time(self):
        # The benchmark scores by squared error only; "loss" is no config key.
        with pytest.raises(ConfigError, match="loss"):
            ExperimentConfig.from_dict({"loss": {"kind": "softmax_xent", "classes": 3}})

    @pytest.mark.parametrize(
        "doc,key",
        [
            ({"prior_sigma2": "abc"}, "prior_sigma2"),
            ({"delta": None}, "delta"),
            ({"e_inf": "1.27"}, "e_inf"),
            ({"e_std": [1.0]}, "e_std"),
            ({"tau_max": True}, "tau_max"),
            ({"prior_sigma2": float("nan")}, "prior_sigma2"),
            ({"lambda_rule": None}, "lambda_rule"),
            ({"lambda_rule": float("inf")}, "lambda_rule"),
            ({"chain": {"proposal_std": "0.05"}}, "chain.proposal_std"),
            ({"chain": {"proposal_std": None}}, "chain.proposal_std"),
        ],
    )
    def test_non_numeric_values_rejected(self, doc, key):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be a finite number"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"chain": 5}, "chain must be an object"),
            ({"chain": None}, "chain must be an object"),
            ({"n_grid": 5}, "n_grid must be a list"),
            ([1], "config must be an object"),
        ],
    )
    def test_wrong_shape_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("thin", 0),
            ("burn_in", -1),
            ("proposal_std", 0),
            ("proposal_std", -0.05),
            ("base_seed", -1),
        ],
    )
    def test_out_of_range_chain_value_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^chain\.{key} must be "):
            ExperimentConfig.from_dict({"chain": {key: value}})

    # One out-of-range value per key; a key added without one fails below.
    OUT_OF_RANGE = {
        "n_grid": [10, 5], "n_seeds": 0, "prior_sigma2": 0.0, "lambda_rule": -2.0,
        "delta": 0.75, "n_f": 0, "chain": 5, "e_inf": -1.27, "e_std": -1.0,
        "tau_max": 1.0, "chain.proposal_std": -0.05, "chain.burn_in": -1,
        "chain.thin": 0, "chain.base_seed": -1,
    }

    @pytest.mark.parametrize(
        "key",
        [f.name for f in dataclasses.fields(ExperimentConfig)]
        + [f"chain.{f.name}" for f in dataclasses.fields(ChainSettings)],
    )
    def test_rejection_names_the_key_and_the_value(self, key):
        value = self.OUT_OF_RANGE[key]
        name = key.removeprefix("chain.")
        doc = {"chain": {name: value}} if name != key else {key: value}
        pattern = rf"^{re.escape(key)} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=pattern):
            ExperimentConfig.from_dict(doc)

    def test_readme_config_block_is_the_default(self):
        # A stale README config block fails here instead of for its readers.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) == 1
        block = json.loads(blocks[0])
        assert ExperimentConfig.from_dict(block) == ExperimentConfig()
        assert block.keys() == dataclasses.asdict(ExperimentConfig()).keys()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="n_seed"):
            ExperimentConfig.from_dict({"n_seed": 3})
        with pytest.raises(ConfigError, match=r"^n_gird is not a config key$"):
            ExperimentConfig.from_dict({"n_gird": [5]})
        with pytest.raises(ConfigError, match=r"^chain\.thinn is not a config key$"):
            ExperimentConfig.from_dict({"chain": {"thinn": 2}})

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(
            n_grid=(10, 20), n_f=100, lambda_rule=3.0,
            chain=ChainSettings(proposal_std=0.1, burn_in=10, thin=2, base_seed=5),
        )
        doc = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert ExperimentConfig.from_dict(doc) == cfg


class TestStabilityTruncatedPrior:
    """``_prior_cloud`` samples the Gaussian prior truncated to tau < tau_max."""

    def test_gaussian_inside_support(self):
        # At sigma2 = 0.02 the truncation ||A||_2 < 0.995 almost never binds,
        # so a stationary chain has E[theta_i^2] = prior_sigma2 in every
        # coordinate.  The pooled statistic is the mean of the per-row series
        # s_t = mean_i theta_ti^2; its standard error is sqrt(var(s) / ESS),
        # with ESS = rows / (integrated autocorrelation time of s).  A 10 000-
        # row chain has ESS ~ 140-230, so 4 standard errors are about 10% of
        # prior_sigma2; dropping the 1/2 of the log density would halve it.
        cfg = ExperimentConfig(n_grid=(1,), n_seeds=1, n_f=10_000)
        s = np.mean(_prior_cloud(cfg, 0) ** 2, axis=1)
        ess = s.size / autocorrelation_time(s)
        assert ess >= 100
        stderr = math.sqrt(float(np.var(s)) / ess)
        assert abs(float(np.mean(s)) - cfg.prior_sigma2) < 4.0 * stderr

    def test_unstable_region_excluded(self):
        # tau_max = 0.1 binds hard at sigma = 0.14: the chain runs into the
        # boundary, and no retained row crosses it.
        cfg = ExperimentConfig(n_grid=(1,), n_seeds=1, n_f=3000, tau_max=0.1)
        a = _prior_cloud(cfg, 0)[:, 0:4].T
        tau = spectral_norm_2x2(a[0], a[1], a[2], a[3])
        assert np.all(tau < 0.1)
        assert float(np.max(tau)) > 0.09

    def test_same_config_same_cloud(self):
        cfg = dataclasses.replace(SMALL, chain=ChainSettings(burn_in=10, thin=3))
        cloud = _prior_cloud(cfg, 1)
        assert cloud.shape == (SMALL.n_f, PARAM_DIM)
        assert np.array_equal(cloud, _prior_cloud(cfg, 1))
        assert not np.array_equal(cloud, _prior_cloud(cfg, 0))

    @pytest.mark.parametrize(
        "burn_in,thin,n_f", [(0, 1, 7), (5, 1, 20), (0, 4, 9), (13, 3, 11)]
    )
    def test_retained_rows_follow_burn_in_and_thin(self, burn_in, thin, n_f):
        # The kept rows are the states after steps burn_in + k * thin of the
        # chain that keeps every step.
        base = ExperimentConfig(n_grid=(20,), n_seeds=1, n_f=n_f)
        cfg = dataclasses.replace(base, chain=ChainSettings(burn_in=burn_in, thin=thin))
        every = dataclasses.replace(
            base, n_f=burn_in + n_f * thin, chain=ChainSettings(burn_in=0, thin=1)
        )
        full = _prior_cloud(every, 2)
        assert np.array_equal(_prior_cloud(cfg, 2), full[burn_in + thin - 1 :: thin])

    def test_all_rejected_chain_stays_at_zero(self):
        # Every proposal moves A off zero by far more than tau_max = 1e-12, so
        # the truncation rejects them all.
        cfg = ExperimentConfig(n_grid=(1,), n_seeds=1, n_f=50, tau_max=1e-12)
        assert np.array_equal(_prior_cloud(cfg, 0), np.zeros((50, PARAM_DIM)))


@pytest.fixture(scope="module")
def reports():
    return run_experiment(SMALL)


class TestRunExperiment:
    def test_cell_count_and_order(self, reports):
        assert len(reports) == len(SMALL.n_grid) * SMALL.n_seeds
        keys = [(r.seed, r.n) for r in reports]
        assert keys == sorted(keys)

    def test_deterministic_rerun(self, reports):
        again = run_experiment(SMALL)
        assert reports == again

    def test_report_invariants(self, reports):
        for r in reports:
            assert r.total == r.post_emp_loss + r.r_n
            assert r.r_n == pytest.approx(
                (r.kl + math.log(1 / r.delta) + r.psi_hat) / r.lambda_, rel=1e-12
            )
            assert r.kl >= 0.0 and r.z_hat > 0.0
            assert r.n_samples == SMALL.n_f

    def test_posterior_loss_containment(self):
        # importance average stays inside the sampled loss range
        from stablepac.bound import gibbs_log_estimates

        data = generate_dataset(0, 20)
        cfg = ExperimentConfig(n_grid=(20,), n_f=300, chain=ChainSettings(burn_in=50))
        thetas = _prior_cloud(cfg, 0)
        (losses,) = prefix_losses(thetas, data.inputs, data.outputs, [20])
        _, _, post = gibbs_log_estimates(-math.sqrt(20) * losses, losses)
        assert float(np.min(losses)) <= post <= float(np.max(losses))

    def test_retained_samples_certified_and_finite(self):
        cfg = ExperimentConfig(n_grid=(30,), n_f=300, chain=ChainSettings(burn_in=100))
        facts = _seed_facts(cfg, _prior_cloud(cfg, 1), generate_dataset(1, 30))
        assert np.all(facts.constants.tau < 0.995)
        lambda_ = math.sqrt(30)
        psi1 = psi1_exponent(lambda_, 30, facts.l_ell, facts.data, facts.gains)
        psi2 = psi2_exponent(
            lambda_, 30, facts.l_ell, facts.constants, facts.data.b_q, facts.gains,
            facts.s0_norm,
        )
        assert np.all(np.isfinite(psi1)) and np.all(np.isfinite(psi2))

    def test_batch_losses_match_reference_evaluator(self):
        from stablepac.loss import empirical_loss

        rng = np.random.default_rng(8)
        data = generate_dataset(4, 30)
        thetas = rng.normal(0, 0.14, size=(20, PARAM_DIM))
        (batch,) = prefix_losses(thetas, data.inputs, data.outputs, [30])
        for i in range(20):
            sys, s0 = benchmark_predictor(thetas[i])
            ref = empirical_loss(LossSpec(kind="square"), sys, s0, data)
            assert batch[i] == pytest.approx(ref, rel=1e-12)

    def test_batch_losses_match_reference_evaluator_past_one_block(self):
        # Over 9000 steps the pass and the per-sample evaluator each run one
        # sum in time order: they agree to rounding.
        from stablepac.loss import empirical_loss

        rng = np.random.default_rng(9)
        data = generate_dataset(4, 9000)
        thetas = rng.normal(0, 0.14, size=(3, PARAM_DIM))
        (batch,) = prefix_losses(thetas, data.inputs, data.outputs, [9000])
        for i in range(3):
            sys, s0 = benchmark_predictor(thetas[i])
            ref = empirical_loss(LossSpec(kind="square"), sys, s0, data)
            assert batch[i] == pytest.approx(ref, rel=1e-12)
        # With A = 0 and C's second entry 0, simulate's products round the
        # same with or without a fused multiply-add, so the two homes of the
        # empirical loss differ only if their summation rules do: equal bit
        # for bit at every n.
        thetas = rng.normal(0, 0.14, size=(20, PARAM_DIM))
        thetas[:, PARAM_SLICES["a"]] = 0.0
        thetas[:, PARAM_SLICES["c"].start + 1] = 0.0
        ns = [1000, 4096, 4097, 9000]
        rows = prefix_losses(thetas, data.inputs, data.outputs, ns)
        for n, row in zip(ns, rows):
            prefix = Trajectory(inputs=data.inputs[:n], outputs=data.outputs[:n])
            for i in range(20):
                sys, s0 = benchmark_predictor(thetas[i])
                ref = empirical_loss(LossSpec(kind="square"), sys, s0, prefix)
                assert row[i].tobytes() == np.float64(ref).tobytes(), (n, i)

    @pytest.mark.parametrize(
        "m,n",
        [
            (300, 500),
            (4999, 40),
            (5000, 40),
            (1, 3),
            (1300, 40),
            (16385, 4),
            (1, 9000),
        ],
    )
    def test_batch_losses_match_step_loop(self, m, n):
        # The pass runs buffers of _LOSS_CHUNK_ELEMENTS // m steps: 6 for
        # 4999 samples and the 5000 of the reference cloud, 25 for 1300, all
        # 3 steps for one sample and one step for more samples than 2**14.
        # One sample over 9000 steps runs one buffer of 9000 steps, and a sum
        # over its steps in one numpy reduction would be pairwise, not in
        # time order.
        rng = np.random.default_rng(m)
        data = generate_dataset(5, n)
        thetas = rng.normal(0, 0.5, size=(m, PARAM_DIM))
        (batch,) = prefix_losses(thetas, data.inputs, data.outputs, [n])
        ref = reference_batch_losses(thetas, data.inputs, data.outputs)
        assert batch.tobytes() == ref.tobytes()

    def test_prefix_loss_rows_match_separate_passes(self):
        # 300 samples run buffers of 109 steps: n = 1, n inside the first
        # buffer (13, 20, 26), two consecutive n inside the third (250, 251),
        # and n_max.
        rng = np.random.default_rng(31)
        data = generate_dataset(6, 500)
        thetas = rng.normal(0, 0.5, size=(300, PARAM_DIM))
        ns = [1, 13, 20, 26, 250, 251, 500]
        rows = prefix_losses(thetas, data.inputs, data.outputs, ns)
        assert rows.shape == (len(ns), 300)
        for n, row in zip(ns, rows):
            (alone,) = prefix_losses(thetas, data.inputs, data.outputs, [n])
            assert row.tobytes() == alone.tobytes()
        ref = reference_batch_losses(thetas, data.inputs[:20], data.outputs[:20])
        assert rows[2].tobytes() == ref.tobytes()

    def test_one_sample_prefix_rows_sum_in_time_order(self):
        # One sample's buffers hold more than 9000 steps, so each piece
        # between consecutive n is one buffer: n = 1, 5, 17, 392 and 393,
        # then 4096 and 4097, 8192 and 8193 (one-step pieces), and n_max.
        # Each row must equal the step loop over its prefix.
        rng = np.random.default_rng(32)
        data = generate_dataset(7, 9000)
        thetas = rng.normal(0, 0.5, size=(1, PARAM_DIM))
        ns = [1, 5, 17, 392, 393, 4096, 4097, 8192, 8193, 9000]
        rows = prefix_losses(thetas, data.inputs, data.outputs, ns)
        for n, row in zip(ns, rows):
            ref = reference_batch_losses(thetas, data.inputs[:n], data.outputs[:n])
            assert row.tobytes() == ref.tobytes(), n

    @pytest.mark.parametrize("m", [1, 2, 3, 2049])
    def test_few_sample_prefix_rows_match_step_loop_bytes(self, m):
        # Over 9000 steps, 1 to 3 samples run each piece between prefix
        # offsets as one buffer, and seg = 4096 spaces the offsets; over 300
        # steps, which keeps all of them finite, 2049 samples run buffers of
        # seg = 15 steps.  The snapshots fall on the first two steps, inside
        # the first seg, on the last step of each of the first two segs and
        # the steps after it (one-row pieces among them), 50 steps past the
        # second and on the last step.  numpy sums a one-column array
        # pairwise, so the first three sample counts are where a reduction
        # over a piece could leave time order.
        from stablepac.cloudloss import _LOSS_CHUNK_ELEMENTS

        n_max = 9000 if m < 4 else 300
        seg = 4096 if m < 4 else _LOSS_CHUNK_ELEMENTS // m
        assert n_max > 2 * seg + 50
        ns = sorted(
            {1, 2, 7, seg, seg + 1, seg + 2, 2 * seg, 2 * seg + 1, 2 * seg + 50, n_max}
        )
        rng = np.random.default_rng(40 + m)
        data = generate_dataset(8, ns[-1])
        thetas = rng.normal(0, 0.5, size=(m, PARAM_DIM))
        got = prefix_losses(thetas, data.inputs, data.outputs, ns)
        assert got.shape == (len(ns), m)
        for n, row in zip(ns, got):
            ref = reference_batch_losses(thetas, data.inputs[:n], data.outputs[:n])
            assert row.tobytes() == ref.tobytes(), n

    @pytest.mark.parametrize("ns", [[], [0, 5], [5, 5], [9, 5], [5, 31]])
    def test_bad_prefix_lengths_rejected(self, ns):
        data = generate_dataset(6, 30)
        with pytest.raises(ValueError, match="prefix lengths"):
            prefix_losses(np.zeros((4, PARAM_DIM)), data.inputs, data.outputs, ns)

    def test_array_prefix_lengths_match_a_list(self):
        data = generate_dataset(6, 30)
        thetas = np.random.default_rng(3).normal(0.0, 0.1, (6, PARAM_DIM))
        got = prefix_losses(thetas, data.inputs, data.outputs, np.array([5, 10]))
        want = prefix_losses(thetas, data.inputs, data.outputs, [5, 10])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ns", [[2.5], [5, 10.0]])
    def test_non_integer_prefix_length_rejected(self, ns):
        data = generate_dataset(6, 30)
        with pytest.raises(ValueError, match=rf"ns\[{len(ns) - 1}\] must be an integer"):
            prefix_losses(np.zeros((4, PARAM_DIM)), data.inputs, data.outputs, ns)

    def test_labels_shorter_than_prefix_rejected(self):
        # The compiled loop would read past the labels' end.
        data = generate_dataset(6, 30)
        with pytest.raises(ValueError, match="prefix lengths"):
            prefix_losses(np.zeros((4, PARAM_DIM)), data.inputs, data.outputs[:20], [25])

    def test_underflowing_weights_evaluate(self):
        # lambda = 1e4 underflows exp(-lambda * loss) for every loss above
        # about 0.075; the log-weights still give the Gibbs estimates.
        cfg = ExperimentConfig(
            n_grid=(20,), n_seeds=1, n_f=40, lambda_rule=1e4,
            chain=ChainSettings(burn_in=20),
        )
        data = generate_dataset(0, 20)
        (losses,) = prefix_losses(
            _prior_cloud(cfg, 0), data.inputs, data.outputs, [20]
        )
        assert np.count_nonzero(np.exp(-1e4 * losses) == 0.0) > 0
        (r,) = run_seed(cfg, 0, data)
        assert r.kl >= 0.0
        assert float(np.min(losses)) <= r.post_emp_loss <= float(np.max(losses))
        assert math.isfinite(r.r_n) and math.isfinite(r.total)
        assert r.z_hat > 0.0 and not math.isnan(r.z_hat)

    def test_grid_smaller_than_seed_count_runs(self):
        # n_max = 2 < n_seeds = 3 used to be refused: base seed 0 gave seed 0
        # the chain seed n_max, the stream of data seed 2.
        reports = run_experiment(
            ExperimentConfig(n_grid=(2,), n_seeds=3, n_f=10, chain=ChainSettings(burn_in=5))
        )
        assert [(r.seed, r.n) for r in reports] == [(0, 2), (1, 2), (2, 2)]

    def test_one_chain_per_seed(self, monkeypatch):
        # Each seed opens one data stream, seeded_rng(seed), and then one
        # chain stream, keyed by (base seed, seed) and not by the grid.
        import stablepac.experiment as experiment

        opened = []
        real_data, real_chain = experiment.seeded_rng, experiment._chain_rng

        def data_rng(seed):
            opened.append(("data", seed))
            return real_data(seed)

        def chain_rng(base_seed, seed):
            opened.append(("chain", base_seed, seed))
            return real_chain(base_seed, seed)

        monkeypatch.setattr(experiment, "seeded_rng", data_rng)
        monkeypatch.setattr(experiment, "_chain_rng", chain_rng)
        cfg = dataclasses.replace(SMALL, chain=ChainSettings(burn_in=50, base_seed=4))
        run_experiment(cfg)
        assert opened == [
            key for s in range(SMALL.n_seeds) for key in (("data", s), ("chain", 4, s))
        ]

    def test_one_dataset_per_seed(self, monkeypatch, tmp_path):
        # Each seed's data is generated once, at n_max, and write_outputs
        # writes that dataset as the seed's trajectory.
        import stablepac.experiment as experiment

        calls = []
        real = experiment.generate_dataset

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(experiment, "generate_dataset", counted)
        out = tmp_path / "out"
        write_outputs(SMALL, run_experiment(SMALL), str(out))
        n_max = SMALL.n_grid[-1]
        assert calls == [(s, n_max, SMALL.e_std, SMALL.e_inf) for s in range(SMALL.n_seeds)]
        for seed in range(SMALL.n_seeds):
            ref = tmp_path / f"ref{seed}.csv"
            save_trajectory(real(seed, n_max, SMALL.e_std, SMALL.e_inf), str(ref))
            written = out / f"trajectory_seed{seed}.csv"
            assert written.read_bytes() == ref.read_bytes()

    def test_one_certification_per_seed(self, monkeypatch):
        import stablepac.experiment as experiment

        clouds = []
        real = experiment._seed_facts

        def counted(cfg, thetas, data):
            clouds.append(thetas.shape[0])
            return real(cfg, thetas, data)

        monkeypatch.setattr(experiment, "_seed_facts", counted)
        run_experiment(SMALL)
        assert clouds == [SMALL.n_f] * SMALL.n_seeds

    def test_one_loss_pass_per_distinct_state(self, kernel_columns):
        # The chain keeps its state on every rejected proposal; each run of
        # identical consecutive rows is simulated once, while the whole
        # cloud is certified (test_one_certification_per_seed).
        run_experiment(SMALL)
        simulated = [columns.shape[1] for columns in kernel_columns]
        distinct = []
        for seed in range(SMALL.n_seeds):
            cloud = _prior_cloud(SMALL, seed)
            distinct.append(
                1 + sum(a.tobytes() != b.tobytes() for a, b in zip(cloud[1:], cloud[:-1]))
            )
        assert simulated == distinct
        assert max(distinct) < SMALL.n_f

    @pytest.mark.parametrize("base_seed", [0, 3000])
    def test_distinct_state_losses_match_full_cloud(self, kernel_columns, base_seed):
        # About half of a 300-row chain cloud repeats the row before it.
        # Its 164 (base seed 0) and 142 distinct rows run buffers of 199
        # and 230 steps, where the full cloud would run buffers of 109; every
        # loss must still be the step loop's bytes over the full cloud.
        cfg = ExperimentConfig(n_grid=(9000,), n_f=300, chain=ChainSettings(base_seed=base_seed))
        cloud = _prior_cloud(cfg, 1)
        distinct = 1 + sum(a.tobytes() != b.tobytes() for a, b in zip(cloud[1:], cloud[:-1]))
        assert distinct == (164 if base_seed == 0 else 142)
        data = generate_dataset(1, 9000)
        ns = [1, 13, 20, 27, 500, 4097, 9000]
        got = prefix_losses(cloud, data.inputs, data.outputs, ns)
        assert [columns.shape[1] for columns in kernel_columns] == [distinct]
        _assert_rows_match_step_loop(got, ns, cloud, data)

    @staticmethod
    def _signed_zero_pair():
        row = np.random.default_rng(3).normal(0, 0.3, size=PARAM_DIM)
        pair = np.stack([row, row])
        pair[0, 12], pair[1, 12] = 0.0, -0.0
        assert np.array_equal(pair[0], pair[1])
        return pair

    @pytest.mark.parametrize(
        "pattern,starts",
        [
            ([0, 0, 0, 0, 0], [0]),  # all rows equal
            ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]),  # no repeated rows
            ([0, 0, 0, 1, 2, 2, 3, 3, 3], [0, 3, 4, 6]),  # runs at both ends
            ([0], [0]),  # m = 1
            ([0, 1, 0, 0], [0, 1, 2]),  # a row recurs after another
            (None, [0, 1]),  # equal under == but not in a signed zero
        ],
    )
    def test_each_run_of_equal_rows_simulated_once(self, kernel_columns, pattern, starts):
        # The kernel steps the first row of each run, in the cloud's order,
        # and every row gets the step loop's losses.
        if pattern is None:
            cloud = self._signed_zero_pair()
        else:
            base = np.random.default_rng(2).normal(0, 0.3, size=(max(pattern) + 1, PARAM_DIM))
            cloud = base[pattern]
        data = generate_dataset(2, 40)
        got = prefix_losses(cloud, data.inputs, data.outputs, [7, 40])
        assert len(kernel_columns) == 1
        assert kernel_columns[0].tobytes() == cloud[starts].T.tobytes()
        _assert_rows_match_step_loop(got, [7, 40], cloud, data)

    def test_reports_match_per_cell_reference(self, reports):
        # Every cell equals the per-cell evaluation with its own chain: the
        # seed's chain does not depend on the grid.
        n_max = SMALL.n_grid[-1]
        for seed in range(SMALL.n_seeds):
            data = generate_dataset(seed, n_max)
            mine = [r for r in reports if r.seed == seed]
            assert mine == [reference_run_cell(SMALL, seed, n, data) for n in SMALL.n_grid]

    def test_progress_follows_each_cell_report(self, monkeypatch):
        # A harness may time each cell between progress calls and then write
        # the reports: progress is called once per cell, in cell order, after
        # the cell's report is made, and names the cell and its total.
        import stablepac.experiment as experiment

        events = []
        real = experiment.run_seed

        def recorded(cfg, seed, data):
            made = real(cfg, seed, data)
            events.extend(("report", r.seed, r.n) for r in made)
            return made

        monkeypatch.setattr(experiment, "run_seed", recorded)
        got = run_experiment(SMALL, progress=lambda msg: events.append(("progress", msg)))
        cells = [(s, n) for s in range(SMALL.n_seeds) for n in SMALL.n_grid]
        assert [(r.seed, r.n) for r in got] == cells
        messages = [e[1] for e in events if e[0] == "progress"]
        assert len(messages) == len(cells)
        for r, msg in zip(got, messages):
            assert msg.startswith(f"seed={r.seed} n={r.n} total={r.total:.4f} ")
            assert events.index(("report", r.seed, r.n)) < events.index(("progress", msg))

    def test_run_seed_needs_n_max_rows(self, monkeypatch):
        # The check comes before the prior chain runs.
        import stablepac.experiment as experiment

        def no_chain(cfg, seed):
            raise AssertionError("the prior chain ran on a short dataset")

        monkeypatch.setattr(experiment, "_prior_cloud", no_chain)
        with pytest.raises(ValueError, match="need at least 20"):
            run_seed(SMALL, 0, generate_dataset(0, 19))

    @staticmethod
    def _stream(rng):
        s = rng.bit_generator.state["state"]
        return s["state"], s["inc"]

    def test_cell_chain_seeds_distinct_across_base_seeds(self):
        # Every (base seed, seed) pair gets its own chain stream; (1, 0) and
        # (0, 1) are the pair the old additive seed arithmetic let collide.
        assert self._stream(_chain_rng(1, 0)) != self._stream(_chain_rng(0, 1))
        chains = [
            self._stream(_chain_rng(b, s)) for b in (0, 1, 2, 3, 1000, 2000) for s in range(100)
        ]
        assert len(set(chains)) == len(chains)

    def test_chain_seeds_differ_from_data_seeds(self):
        # A chain sharing a data seed's PCG64 stream would make the prior
        # depend on the data.  (base seed 3, seed 0) is the pair whose
        # SeedSequence([3, 0]) would be data seed 3's stream.
        assert self._stream(_chain_rng(3, 0)) != self._stream(seeded_rng(3))
        data = {self._stream(seeded_rng(k)) for k in range(10_000)}
        chains = [
            self._stream(_chain_rng(b, s)) for b in (0, 1, 2, 3, 1000, 2000) for s in range(100)
        ]
        assert data.isdisjoint(chains)

    def test_single_n_grid_gives_the_full_grid_report(self):
        # The prior cloud depends on neither the data nor n, so a one-n grid
        # reports exactly the full grid's cell: the reference grid, seeds 0-1.
        cfg = ExperimentConfig(n_seeds=2, n_f=300)
        for seed in range(cfg.n_seeds):
            data = generate_dataset(seed, cfg.n_grid[-1])
            full = run_seed(cfg, seed, data)
            for n, report in zip(cfg.n_grid, full):
                one = dataclasses.replace(cfg, n_grid=(n,))
                assert run_seed(one, seed, generate_dataset(seed, n)) == [report]

    def test_doubling_n_halves_transient_exponents_exactly(self, reports):
        rng = np.random.default_rng(9)
        from stablepac.certify import StabilityConstants, gain_pair

        for _ in range(200):
            c = StabilityConstants(
                c=float(rng.uniform(1, 2)),
                tau=float(rng.uniform(0, 0.9)),
                l_v=float(rng.uniform(0, 1)),
                l_gs=float(rng.uniform(0, 1)),
                l_gv=float(rng.uniform(0, 1)),
            )
            gh = gain_pair(c)
            lam = float(rng.uniform(0.5, 5))
            n = int(rng.integers(1, 1000))
            a = psi2_exponent(lam, n, 1.3, c, 1.4, gh, 0.7)
            b = psi2_exponent(lam, 2 * n, 1.3, c, 1.4, gh, 0.7)
            assert b == a / 2.0


def _stable_cloud(rng, m, a_norm=0.3):
    """m predictors at the prior's scale with ||A||_2 = a_norm each."""
    thetas = rng.normal(0, 0.3, size=(m, PARAM_DIM))
    a = thetas[:, PARAM_SLICES["a"]]
    a *= (a_norm / spectral_norm_2x2(*a.T))[:, None]
    return thetas


@pytest.fixture
def small_buffers(monkeypatch):
    """Loss buffers small enough for a short series to span many: buffers of
    7 steps for 20 samples."""
    import stablepac.cloudloss as cloudloss

    monkeypatch.setattr(cloudloss, "_LOSS_CHUNK_ELEMENTS", 20 * 7)
    return cloudloss


def _assert_rows_match_step_loop(rows, ns, thetas, data):
    """Each row is the step loop's over its prefix."""
    for n, row in zip(ns, rows):
        ref = reference_batch_losses(thetas, data.inputs[:n], data.outputs[:n])
        assert row.tobytes() == ref.tobytes(), n


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """The loss pass's kernel cache moved to an empty directory, and the
    loaded kernel forgotten before and after the test."""
    import stablepac.cloudloss as cloudloss

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cloudloss._kernel.cache_clear()
    yield cloudloss
    cloudloss._kernel.cache_clear()


@pytest.fixture
def no_kernel(monkeypatch):
    """A loss pass that fails the test if it loads the kernel: for inputs it
    must reject first, since the kernel reads them from raw addresses."""
    import stablepac.cloudloss as cloudloss

    def kernel():
        raise AssertionError("the kernel was loaded for a misshapen input")

    monkeypatch.setattr(cloudloss, "_kernel", kernel)


@pytest.fixture
def kernel_columns(monkeypatch):
    """The columns each loss pass hands the kernel, one (14, m) array per
    pass: its 12 weight rows and its two state rows as the first step reads
    them."""
    import ctypes

    import stablepac.cloudloss as cloudloss

    passes, real = [], cloudloss._kernel

    def kernel():
        step, add_squares = real()
        index = len(passes)
        passes.append(None)

        def recorded(n, m, x, xs, w, s, out):
            if passes[index] is None:
                rows = [np.frombuffer((ctypes.c_double * (k * m)).from_address(a)).reshape(k, m)
                        for a, k in ((w, 12), (s, 2))]
                passes[index] = np.vstack(rows)
            step(n, m, x, xs, w, s, out)

        return recorded, add_squares

    monkeypatch.setattr(cloudloss, "_kernel", kernel)
    return passes


class TestLossRounds:
    @pytest.mark.parametrize(
        "ns",
        [
            [40, 80, 120, 200, 640],  # each piece ends in a short buffer
            [160, 320, 480, 640],  # long pieces, each of many buffers
            [1, 2, 37, 41, 100, 161, 333, 639, 640],  # one-step pieces among them
        ],
        ids=["segment-boundary", "round-boundary", "inside-segment"],
    )
    def test_snapshots_match_step_loop(self, small_buffers, ns):
        rng = np.random.default_rng(50)
        data = generate_dataset(9, 640)
        thetas = _stable_cloud(rng, 20)
        rows = prefix_losses(thetas, data.inputs, data.outputs, ns)
        _assert_rows_match_step_loop(rows, ns, thetas, data)

    @pytest.mark.parametrize(
        "m,n_max,steps",
        [
            (80, 610, 4),  # 152 whole buffers, then a one-step piece
            (80, 490, 4),  # 122 whole buffers, then a one-step piece
            (60, 610, 3),  # a last buffer of 2 steps, then a one-step piece
        ],
    )
    def test_short_last_round(self, small_buffers, monkeypatch, m, n_max, steps):
        # The buffers of ``steps`` steps end at the prefix offsets
        # n_max - 1 and n_max, so the last pieces are short.
        monkeypatch.setattr(small_buffers, "_LOSS_CHUNK_ELEMENTS", m * steps)
        rng = np.random.default_rng(51)
        data = generate_dataset(10, n_max)
        thetas = _stable_cloud(rng, m)
        ns = [1, n_max - 1, n_max]
        rows = prefix_losses(thetas, data.inputs, data.outputs, ns)
        _assert_rows_match_step_loop(rows, ns, thetas, data)

    def test_one_n_passes_equal_the_rows_of_one_pass(self):
        # No row depends on the other n: passes to single n, among them
        # consecutive ones, give the rows of one pass to all of them.
        rng = np.random.default_rng(55)
        data = generate_dataset(14, 9000)
        thetas = _stable_cloud(rng, 30)
        ns = [4095, 4096, 4097, 8192, 8193, 9000]
        rows = prefix_losses(thetas, data.inputs, data.outputs, ns)
        for n, row in zip(ns, rows):
            (alone,) = prefix_losses(thetas, data.inputs, data.outputs, [n])
            assert alone.tobytes() == row.tobytes(), n

    def test_long_series_cloud_losses_match_full_cloud(self, kernel_columns):
        # The long_series cloud at base seed 0: its 154 distinct rows give
        # the losses of the 300 rows of the full cloud over 1e4 steps.
        cfg = ExperimentConfig(n_grid=(1000, 10000, 100000), n_seeds=1, n_f=300)
        cloud = _prior_cloud(cfg, 0)
        distinct = 1 + sum(a.tobytes() != b.tobytes() for a, b in zip(cloud[1:], cloud[:-1]))
        assert distinct == 154
        data = generate_dataset(0, 10000)
        ns = [1000, 10000]
        got = prefix_losses(cloud, data.inputs, data.outputs, ns)
        assert [columns.shape[1] for columns in kernel_columns] == [distinct]
        _assert_rows_match_step_loop(got, ns, cloud, data)

    def test_relu_maps_negative_zero_to_positive_zero(self):
        # With a00 = a01 = b0 = -0.0, a zero state and x = 1, the first
        # pre-activation is exactly bs0; the kernel's ReLU must give
        # np.maximum's bytes: +0.0 for -0.0 and negatives, NaN kept.
        import stablepac.cloudloss as cloudloss

        step, _ = cloudloss._kernel()
        bs0 = np.array([-0.0, 0.0, -1.5, 2.5, np.nan, -np.inf, np.inf])
        w = np.zeros((12, bs0.size))
        w[[0, 1, 4]] = -0.0
        w[6] = bs0
        x, state, out = np.ones(1), np.zeros((2, bs0.size)), np.empty((1, bs0.size))
        step(1, bs0.size, x.ctypes.data, 1, *(a.ctypes.data for a in (w, state, out)))
        assert np.maximum(-0.0, 0.0).tobytes() == np.float64(0.0).tobytes()
        assert state[0].tobytes() == np.maximum(bs0, 0.0).tobytes()

    @pytest.mark.parametrize(
        "command", [("stablepac-no-such-compiler",), ("cc", "-stablepac-no-such-flag")],
        ids=["missing", "failing"],
    )
    def test_compiler_failure_raises_typed_error(self, fresh_kernel, monkeypatch, command):
        monkeypatch.setattr(fresh_kernel, "_COMPILE", command)
        with pytest.raises(KernelBuildError, match=re.escape(command[-1])):
            fresh_kernel._kernel()
        assert not list((Path(os.environ["XDG_CACHE_HOME"]) / "stablepac").iterdir())

    def test_second_load_reuses_the_cached_kernel(self, fresh_kernel, monkeypatch):
        import subprocess

        fresh_kernel._kernel()
        (built,) = (Path(os.environ["XDG_CACHE_HOME"]) / "stablepac").iterdir()
        fresh_kernel._kernel.cache_clear()

        def no_compiler(*args, **kwargs):
            raise AssertionError("the cached kernel was compiled again")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        data = generate_dataset(1, 50)
        thetas = _stable_cloud(np.random.default_rng(57), 4)
        rows = prefix_losses(thetas, data.inputs, data.outputs, [50])
        _assert_rows_match_step_loop(rows, [50], thetas, data)
        assert [p.name for p in built.parent.iterdir()] == [built.name]

    def test_peak_allocation_is_the_round_buffers(self):
        # 154 samples over 1e4 steps.  The pass may hold one buffer of
        # steps, the inputs and labels of one buffer, O(samples) weights and
        # sums, the means and numpy's ufunc buffers (getbufsize() elements
        # for each of up to three operands); all output pre-activations at
        # once would be 1e4 x 154 doubles, 12 MB.
        import tracemalloc

        rng = np.random.default_rng(54)
        thetas = _stable_cloud(rng, 154)
        data = generate_dataset(13, 10000)
        ns = [1000, 10000]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prefix_losses(thetas, data.inputs, data.outputs, ns)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Doubles: a 2**15 buffer of steps, and 32 per sample.
        cap = (1 << 15) + 32 * 154
        assert peak <= 8 * (cap + 154 * len(ns) + 3 * np.getbufsize()), peak

    def test_pass_leaves_no_cyclic_garbage(self):
        # The kernel gets raw addresses, so a pass builds no ctypes objects
        # that only the cycle collector frees.
        import gc

        from stablepac.cloudloss import _kernel

        rng = np.random.default_rng(55)
        thetas = _stable_cloud(rng, 30)
        data = generate_dataset(14, 5000)
        _kernel()
        gc.collect()
        gc.disable()
        try:
            prefix_losses(thetas, data.inputs, data.outputs, [100, 5000])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_non_float64_data_rejected(self):
        rng = np.random.default_rng(56)
        thetas = _stable_cloud(rng, 4)
        data = generate_dataset(15, 50)
        with pytest.raises(TypeError, match="float64"):
            prefix_losses(
                thetas, data.inputs, data.outputs.astype(np.float32), [10, 50]
            )

    @pytest.mark.parametrize(
        "shape",
        [(4, PARAM_DIM - 1), (4, PARAM_DIM + 1), (PARAM_DIM,), (2, 4, PARAM_DIM), (0, PARAM_DIM)],
        ids=["narrow", "wide", "1-d", "3-d", "empty"],
    )
    def test_misshapen_cloud_rejected_before_the_kernel(self, no_kernel, shape):
        # The kernel reads PARAM_DIM rows of m >= 1 doubles.
        data = generate_dataset(15, 50)
        with pytest.raises(ValueError, match=r"cloud must be .*" + re.escape(str(shape))):
            prefix_losses(np.zeros(shape), data.inputs, data.outputs, [10, 50])

    @pytest.mark.parametrize("which", ["inputs", "labels"])
    @pytest.mark.parametrize("shape", [(50, 2), (50,)], ids=["two-columns", "1-d"])
    def test_misshapen_data_rejected_before_the_kernel(self, no_kernel, shape, which):
        # The kernel reads one column through its row stride: a second column
        # would go unread, and a 1-D array has no column.
        data = generate_dataset(15, 50)
        args = {"inputs": data.inputs, "labels": data.outputs, which: np.zeros(shape)}
        with pytest.raises(ValueError, match=r"data must be \(n, 1\).*" + re.escape(str(shape))):
            prefix_losses(np.zeros((4, PARAM_DIM)), args["inputs"], args["labels"], [10, 50])

    def test_cloud_layout_does_not_change_the_losses(self):
        # A Fortran-ordered cloud, whose transpose is C-contiguous, and a
        # strided view of rows give the bytes of their C-contiguous copies,
        # and the kernel advances its own copy of the states, not the cloud.
        thetas = _stable_cloud(np.random.default_rng(58), 40)
        data = generate_dataset(16, 300)
        ns = [7, 300]
        for cloud in (np.asfortranarray(thetas), thetas[::2]):
            assert not cloud.flags.c_contiguous
            kept = cloud.copy()
            got = prefix_losses(cloud, data.inputs, data.outputs, ns)
            assert cloud.tobytes() == kept.tobytes()
            want = prefix_losses(np.ascontiguousarray(cloud), data.inputs, data.outputs, ns)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("view", ["columns", "reversed", "every-other-row"])
    def test_strided_data_give_the_contiguous_bytes(self, small_buffers, view):
        # The kernel reads the inputs and labels in place through their row
        # strides, over buffers of 3 steps here: generate_dataset's column
        # views of one (n, 2) array, 16 bytes apart, those views reversed,
        # and every other row of them.
        thetas = _stable_cloud(np.random.default_rng(59), 40)
        data = generate_dataset(17, 600)
        inputs, labels = {
            "columns": (data.inputs, data.outputs),
            "reversed": (data.inputs[::-1], data.outputs[::-1]),
            "every-other-row": (data.inputs[::2], data.outputs[::2]),
        }[view]
        assert not inputs.flags.c_contiguous and not labels.flags.c_contiguous
        ns = [1, 7, 250, 300]
        got = prefix_losses(thetas, inputs, labels, ns)
        want = prefix_losses(
            thetas, np.ascontiguousarray(inputs), np.ascontiguousarray(labels), ns
        )
        assert got.tobytes() == want.tobytes()

    def test_misaligned_data_rejected_before_the_kernel(self, monkeypatch):
        # The kernel reads the inputs and labels as doubles in place: a row
        # stride of 12 bytes would read across float64s, and so would a
        # column that starts 4 bytes into its buffer.
        import stablepac.cloudloss as cloudloss

        def no_kernel():
            raise AssertionError("the kernel was loaded for misaligned data")

        monkeypatch.setattr(cloudloss, "_kernel", no_kernel)
        thetas = _stable_cloud(np.random.default_rng(60), 4)
        data = generate_dataset(15, 50)
        buf = np.zeros(1000, dtype=np.uint8)
        for offset, stride in ((0, 12), (4, 16)):
            skewed = np.ndarray((50, 1), dtype=np.float64, buffer=buf, offset=offset,
                                strides=(stride, 8))
            for inputs, labels in ((skewed, data.outputs), (data.inputs, skewed)):
                with pytest.raises(ValueError, match="aligned float64s"):
                    prefix_losses(thetas, inputs, labels, [10, 50])

    def test_peak_holds_one_copy_of_the_distinct_rows(self):
        # Seed 0's default cloud: 5000 chain rows, 2608 of them distinct.
        # The pass gathers the distinct rows once into the kernel's (14, m)
        # layout and reads the data in place, so its peak is that copy, the
        # buffer of steps (at most 2**15 doubles), the sums of each n and the
        # running sums, one double per distinct row each, and one row more
        # for the run flags, the gather's index and Python objects.  A second
        # (14, m) copy, a copy of all 5000 rows, or the 8 x 5000 result made
        # while the buffers live would each pass the cap.
        import tracemalloc

        cfg = ExperimentConfig()
        cloud = _prior_cloud(cfg, 0)
        data = generate_dataset(0, cfg.n_grid[-1])
        m = 1 + sum(a.tobytes() != b.tobytes() for a, b in zip(cloud[1:], cloud[:-1]))
        assert m == 2608
        prefix_losses(cloud[:2], data.inputs, data.outputs, [5])  # load the kernel
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prefix_losses(cloud, data.inputs, data.outputs, cfg.n_grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * ((1 << 15) + (PARAM_DIM + len(cfg.n_grid) + 2) * m), peak


class TestCloudCertificate:
    """The array certificate agrees sample by sample with the per-system path."""

    TAU_MAX = 0.995

    @classmethod
    def cloud(cls, rng, m=300):
        thetas = rng.normal(0, 0.14, size=(m, PARAM_DIM))
        # A third with tiny weights, a third with tau just below tau_max.
        thetas[: m // 3] *= 10.0 ** rng.uniform(-8, -2, size=(m // 3, 1))
        near = slice(m // 3, 2 * m // 3)
        a = thetas[near, 0:4].reshape(-1, 2, 2)
        target = cls.TAU_MAX - 10.0 ** rng.uniform(-7, -2, size=a.shape[0])
        scale = target / np.linalg.norm(a, 2, axis=(1, 2))
        thetas[near, 0:4] = (a * scale[:, None, None]).reshape(-1, 4)
        return thetas[np.linalg.norm(thetas[:, 0:4].reshape(-1, 2, 2), 2, axis=(1, 2)) < cls.TAU_MAX]

    @classmethod
    def facts(cls, thetas):
        cfg = ExperimentConfig(n_grid=(5,), tau_max=cls.TAU_MAX)
        return _seed_facts(cfg, thetas, generate_dataset(0, 5))

    def test_matches_per_sample_functions(self):
        from stablepac import gain_pair, loss_lipschitz
        from stablepac.mixing import generator_data_constants

        rng = np.random.default_rng(21)
        thetas = self.cloud(rng)
        assert thetas.shape[0] > 250
        dc = generator_data_constants(build_reference_generator(), 1.27)
        spec = LossSpec(kind="square")
        facts = self.facts(thetas)
        assert facts.data == dc
        arr, arr_gh, arr_l_ell = facts.constants, facts.gains, facts.l_ell
        arr_s0_norm = facts.s0_norm
        # The moment exponents of the whole cloud, at two values of n.
        psi = {
            n: (
                psi1_exponent(math.sqrt(n), n, arr_l_ell, dc, arr_gh),
                psi2_exponent(math.sqrt(n), n, arr_l_ell, arr, dc.b_q, arr_gh, arr_s0_norm),
            )
            for n in (5, 50)
        }
        for i, theta in enumerate(thetas):
            sys, s0 = benchmark_predictor(theta)
            ref = rnn_constants(sys)
            for name in ("l_v", "l_gs", "l_gv"):
                assert getattr(arr, name)[i] == pytest.approx(getattr(ref, name), rel=1e-12)
            assert arr.c == ref.c
            # rnn_constants' power iteration is accurate to ~1e-11 relative
            # when the two singular values are close; the closed form is
            # checked against the SVD at 1e-12 instead.
            svd = np.linalg.svd(sys.a, compute_uv=False)[0]
            assert arr.tau[i] == pytest.approx(svd, rel=1e-12)
            assert arr.tau[i] == pytest.approx(ref.tau, rel=1e-9)
            # Near tau_max the gains amplify a one-ulp change of tau by
            # tau / (1 - tau), so the bound terms are compared on the same tau.
            ref = dataclasses.replace(ref, tau=float(arr.tau[i]))
            gh = gain_pair(ref)
            assert arr_gh.g[i] == pytest.approx(gh.g, rel=1e-12)
            assert arr_gh.h[i] == pytest.approx(gh.h, rel=1e-12)
            l_ell = loss_lipschitz(spec, dc, gh)
            assert arr_l_ell[i] == pytest.approx(l_ell, rel=1e-12)
            s0_norm = float(np.linalg.norm(s0))
            assert arr_s0_norm[i] == pytest.approx(s0_norm, rel=1e-12)
            for n, (psi1, psi2) in psi.items():
                lambda_ = math.sqrt(n)
                assert psi1[i] == pytest.approx(
                    psi1_exponent(lambda_, n, l_ell, dc, gh), rel=1e-12
                )
                assert psi2[i] == pytest.approx(
                    psi2_exponent(lambda_, n, l_ell, ref, dc.b_q, gh, s0_norm), rel=1e-12
                )

    def test_psi2_is_two_lambda_times_transient_gap_bound(self):
        # psi2 is the log-MGF bound, at s = 2*lambda, of the transient term,
        # which is bounded deterministically: both share one bracket, on
        # scalars and on seed 0's cloud arrays.
        cfg = ExperimentConfig(n_grid=(20,), n_seeds=1, n_f=1000)
        facts = _seed_facts(cfg, _prior_cloud(cfg, 0), generate_dataset(0, 20))
        b_q = facts.data.b_q
        rng = np.random.default_rng(5)
        # (c, tau, l_v, l_gs, l_gv), l_ell and ||s0|| as floats.
        scalars = [
            (StabilityConstants(*map(float, rng.uniform([1, 0, 0, 0, 0], [3, 0.999, 2, 2, 2]))),
             float(rng.uniform(0, 5)), float(rng.uniform(0, 2)))
            for _ in range(50)
        ]
        cases = [(facts.constants, facts.l_ell, facts.s0_norm), *scalars]
        for consts, l_ell, s0_norm in cases:
            gh = gain_pair(consts)
            for n, lambda_ in ((1, 1.0), (5, math.sqrt(5)), (20, 0.3), (1000, 1000.0)):
                psi2 = psi2_exponent(lambda_, n, l_ell, consts, b_q, gh, s0_norm)
                gap = transient_gap_bound(consts, l_ell, b_q, s0_norm, n)
                assert psi2 == pytest.approx(2.0 * lambda_ * gap, rel=1e-15, abs=0.0)

    def test_truncation_failure_is_reported(self):
        thetas = np.zeros((3, PARAM_DIM))
        thetas[1, 0] = self.TAU_MAX
        with pytest.raises(RuntimeError, match="sample 1 .*prior truncation failed"):
            self.facts(thetas)

    def test_final_states_oracle_matches_simulate(self):
        # The oracle below starts V_n from reference_final_states.
        from stablepac.dynsys import simulate

        thetas = np.random.default_rng(22).normal(0, 0.3, size=(5, PARAM_DIM))
        data = generate_dataset(3, 50)
        got = reference_final_states(thetas, data.inputs[:-1])
        for theta, state in zip(thetas, got):
            states, _ = simulate(*benchmark_predictor(theta), data.inputs)
            assert np.array_equal(states[-1], state)

    def test_two_states_of_a_cloud_sample_contract(self):
        # Contraction: 400 rows of seed 0's default cloud, each run over
        # seed 0's data from s0 and from s0 plus an N(0, 1) offset, close
        # their gap at rate c*tau^t, with tau the closed-form ||A||_2 and
        # c = 1 (the ReLU state map is 1-Lipschitz in the 2-norm).
        from stablepac.dynsys import simulate

        cfg = ExperimentConfig()
        rows = np.random.default_rng(10).choice(cfg.n_f, 400, replace=False)
        cloud = _prior_cloud(cfg, 0)[rows]
        taus = spectral_norm_2x2(*cloud[:, PARAM_SLICES["a"]].T)
        offsets = np.random.default_rng(11).normal(size=(cloud.shape[0], 2))
        inputs = generate_dataset(0, 200).inputs
        powers = np.arange(inputs.shape[0])
        assert rnn_constants(benchmark_predictor(cloud[0])[0]).c == 1.0
        for theta, tau, offset in zip(cloud, taus, offsets):
            sys, s0 = benchmark_predictor(theta)
            states, _ = simulate(sys, s0, inputs)
            moved, _ = simulate(sys, s0 + offset, inputs)
            gap = np.linalg.norm(moved - states, axis=1)
            assert np.all(gap <= tau**powers * gap[0] + 1e-14)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 9: the pipeline's l_ell = 2*b_q*g is no Lipschitz "
        "constant of the squared loss, so the transient gap exceeds its bound",
    )
    def test_transient_gap_bound_holds_on_the_cloud(self):
        # 400 rows of seed 0's cloud, with their biases and s0, on 8 datasets:
        # the loss over an n = 20 window from s0 and V_n, the loss over the
        # same window from the state reached from zero over a 300-step
        # prefix, differ by at most the bound, with the pipeline's l_ell, b_q
        # and ||s0||.  With l_ell = 4 no sample exceeds it.
        cfg = ExperimentConfig(n_grid=(100,), n_seeds=1)
        rows = np.random.default_rng(9).choice(cfg.n_f, 400, replace=False)
        cloud = _prior_cloud(cfg, 0)[rows]
        n, prefix = 20, 300
        facts = _seed_facts(dataclasses.replace(cfg, n_grid=(n,)), cloud, generate_dataset(0, n))
        bound = transient_gap_bound(
            facts.constants, facts.l_ell, facts.data.b_q, facts.s0_norm, n
        )
        s0 = PARAM_SLICES["s0"]
        from_zero, steady = cloud.copy(), cloud.copy()
        from_zero[:, s0] = 0.0
        gaps = []
        for seed in range(100, 108):
            data = generate_dataset(seed, prefix + n)
            steady[:, s0] = reference_final_states(from_zero, data.inputs[:prefix])
            window = (data.inputs[prefix:], data.outputs[prefix:], [n])
            (l_hat,) = prefix_losses(cloud, *window)
            (v_n,) = prefix_losses(steady, *window)
            gaps.append(np.abs(l_hat - v_n))
        assert np.all(np.max(gaps, axis=0) <= bound)


class TestCell:
    def test_cells_equal_the_scalar_calls(self):
        # Seed 0's default cloud; at (1000, 1000) exp(-lambda * loss)
        # underflows for some samples.
        cfg = ExperimentConfig(n_grid=(5, 1000), n_seeds=1)
        facts = _seed_facts(cfg, _prior_cloud(cfg, 0), generate_dataset(0, 1000))
        assert np.count_nonzero(np.exp(-1000.0 * facts.losses[1]) == 0.0) > 0
        for n, lambda_ in [(5, math.sqrt(5)), (5, 1000.0), (1000, 1000.0)]:
            losses = facts.losses[cfg.n_grid.index(n)]
            got = _cell(facts, 0, n, losses, lambda_, cfg.delta)
            want = scalar_terms(facts, n, lambda_, losses, cfg.delta)
            assert [got.psi_hat.hex(), got.kl.hex(), got.post_emp_loss.hex(),
                    got.z_hat.hex(), got.r_n.hex()] == [w.hex() for w in want]


class TestEmitCurves:
    def test_columns_golden(self, tmp_path):
        reports = run_seed(dataclasses.replace(SMALL, n_grid=(5,)), 0, generate_dataset(0, 5))
        report_path, summary_path = emit_curves(reports, str(tmp_path))
        report_lines = open(report_path).read().splitlines()
        assert report_lines[0] == (
            "N,seed,lambda,delta,kl,psi_hat,r_N,post_emp_loss,total_bound,"
            "z_hat,n_samples"
        )
        assert len(report_lines) == 2
        summary_lines = open(summary_path).read().splitlines()
        assert summary_lines[0] == (
            "N,total_median,total_min,total_max,post_emp_loss_median,"
            "post_emp_loss_min,post_emp_loss_max,vacuity_level"
        )
        assert summary_lines[1].split(",")[-1] == "1.0"

    def test_fields_written_by_declared_type(self, tmp_path):
        # A float field holding an int reads as a float, an int field as digits.
        report = BoundReport(n=7, seed=3, lambda_=2, delta=0.25, kl=0, psi_hat=1, r_n=0.5,
                             post_emp_loss=0.125, total=0.625, z_hat=1, n_samples=40)
        report_path, summary_path = emit_curves([report], str(tmp_path))
        assert open(report_path).read().splitlines() == [
            "N,seed,lambda,delta,kl,psi_hat,r_N,post_emp_loss,total_bound,z_hat,n_samples",
            "7,3,2.0,0.25,0.0,1.0,0.5,0.125,0.625,1.0,40",
        ]
        assert open(summary_path).read().splitlines()[1] == (
            "7,0.625,0.625,0.625,0.125,0.125,0.125,1.0"
        )

    def test_rerun_byte_identical(self, tmp_path):
        reports = run_experiment(SMALL)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        p1, s1 = emit_curves(reports, str(d1))
        p2, s2 = emit_curves(run_experiment(SMALL), str(d2))
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert open(s1, "rb").read() == open(s2, "rb").read()

    def test_write_outputs_full_layout(self, tmp_path):
        reports = run_experiment(SMALL)
        write_outputs(SMALL, reports, str(tmp_path / "out"))
        base = tmp_path / "out"
        assert (base / "generator.json").exists()
        assert (base / "bound_reports.csv").exists()
        assert (base / "summary.csv").exists()
        for seed in range(SMALL.n_seeds):
            assert (base / f"trajectory_seed{seed}.csv").exists()

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_curves([], str(tmp_path))

    def test_medians_match_np_median_bits(self, tmp_path):
        # Totals per n, odd and even counts, in report order.  The posterior
        # losses are their negations, so each column meets both signs.
        columns = {
            1: [-0.0],
            2: [0.0, -0.0],
            3: [0.0, -0.0, 0.0],
            4: [-0.0, 3.0, -0.0, -1e-300],
            5: [1e300, 2.5e-8, 2.5e-8, 5e-324, 1e-300],
            6: [1e300, -1e300, 2.5e299, 5e-324, 1e-300, 1e300],
            7: [0.1, 0.2, 0.1, 0.3],
            8: [-5e-324, 0.0],
            9: [-5e-324, 5e-324, -5e-324],
        }
        reports = [
            BoundReport(n=n, seed=seed, lambda_=1.0, delta=0.025, kl=0.0, psi_hat=0.0,
                        r_n=0.0, post_emp_loss=-total, total=total, z_hat=0.0, n_samples=1)
            for n, totals in columns.items()
            for seed, total in enumerate(totals)
        ]
        _, summary_path = emit_curves(reports, str(tmp_path))
        rows = [line.split(",") for line in open(summary_path).read().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(columns)
        for row, totals in zip(rows, columns.values()):
            want = (np.median(totals), np.median([-t for t in totals]))
            got = (float(row[1]), float(row[4]))
            assert [g.hex() for g in got] == [float(w).hex() for w in want], row

    def test_run_and_write_leave_numpy_ma_unloaded(self, tmp_path):
        # np.median's first call imports numpy.ma; a run must not pay for it.
        # conftest puts src first on PYTHONPATH.
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from stablepac.experiment import ExperimentConfig, run_experiment, write_outputs\n"
            "cfg = ExperimentConfig(n_grid=(5, 20), n_seeds=1, n_f=50)\n"
            "write_outputs(cfg, run_experiment(cfg), sys.argv[1])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
            check=True,
        )
        assert proc.stdout.strip() == "False"
        assert (tmp_path / "summary.csv").exists()
