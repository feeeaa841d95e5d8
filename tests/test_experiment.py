import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from stablepac import (
    ExperimentConfig,
    LossSpec,
    build_reference_generator,
    data_constants,
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
from stablepac.errors import ConfigError
from stablepac.experiment import (
    _PARAM_SLICES,
    PARAM_DIM,
    ChainSettings,
    _chain_rng,
    _batch_empirical_losses,
    _prior_cloud,
    _reduce,
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

    def test_length_and_shapes(self):
        traj = generate_dataset(1, 37)
        assert traj.length == 37
        assert traj.inputs.shape == (37, 1) and traj.outputs.shape == (37, 1)


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

    def test_experiment_reads_blocks_only_through_the_table(self):
        # A hand-written index into a parameter vector would fix a second
        # copy of the layout; every block is read through _PARAM_SLICES.
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

        path = Path(__file__).resolve().parent.parent / "src" / "stablepac" / "experiment.py"
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
                and vector.id in {"theta", "thetas", "th", "prop"}
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
        from stablepac.experiment import _batch_empirical_losses

        data = generate_dataset(0, 20)
        cfg = ExperimentConfig(n_grid=(20,), n_f=300, chain=ChainSettings(burn_in=50))
        thetas = _prior_cloud(cfg, 0)
        (losses,) = _batch_empirical_losses(thetas, data.inputs, data.outputs, [20])
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
        from stablepac.experiment import _batch_empirical_losses
        from stablepac.loss import empirical_loss

        rng = np.random.default_rng(8)
        data = generate_dataset(4, 30)
        thetas = rng.normal(0, 0.14, size=(20, PARAM_DIM))
        (batch,) = _batch_empirical_losses(thetas, data.inputs, data.outputs, [30])
        for i in range(20):
            sys, s0 = benchmark_predictor(thetas[i])
            ref = empirical_loss(LossSpec(kind="square"), sys, s0, data)
            assert batch[i] == pytest.approx(ref, rel=1e-12)

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
        # (segments per round, steps per segment) from _loss_round_shape:
        # 300 samples over 500 steps run one round of two 250-step segments
        # side by side, the second from a warm-up; 4999 samples and the 5000
        # of the reference cloud take rounds of one 2-step segment, 1300 of
        # one 8-step segment; one sample (two equal columns) takes all 3
        # steps at once; more samples than 2**14 take one step per round;
        # one sample over 9000 steps runs 23 segments of 392 steps side by
        # side, the last 16 of them padding, and a sum over its steps in one
        # reduction would be pairwise, not in time order.
        from stablepac.experiment import _batch_empirical_losses

        rng = np.random.default_rng(m)
        data = generate_dataset(5, n)
        thetas = rng.normal(0, 0.5, size=(m, PARAM_DIM))
        (batch,) = _batch_empirical_losses(thetas, data.inputs, data.outputs, [n])
        ref = reference_batch_losses(thetas, data.inputs, data.outputs)
        assert batch.tobytes() == ref.tobytes()

    def test_prefix_loss_rows_match_separate_passes(self):
        # 300 samples run two 250-step segments side by side: n = 1, n inside
        # the first segment (13, 20, 26), on its last step and on the second
        # one's first (250, 251), and n_max.
        from stablepac.experiment import _batch_empirical_losses

        rng = np.random.default_rng(31)
        data = generate_dataset(6, 500)
        thetas = rng.normal(0, 0.5, size=(300, PARAM_DIM))
        ns = [1, 13, 20, 26, 250, 251, 500]
        rows = _batch_empirical_losses(thetas, data.inputs, data.outputs, ns)
        assert rows.shape == (len(ns), 300)
        for n, row in zip(ns, rows):
            (alone,) = _batch_empirical_losses(thetas, data.inputs, data.outputs, [n])
            assert row.tobytes() == alone.tobytes()
        ref = reference_batch_losses(thetas, data.inputs[:20], data.outputs[:20])
        assert rows[2].tobytes() == ref.tobytes()

    def test_one_sample_prefix_rows_sum_in_time_order(self):
        # One sample runs as two equal columns, 23 segments of 392 steps side
        # by side: n = 1, 5 and 17 inside the first, n on its last step and
        # on the next one's first, inside the eleventh (4096, 4097) and
        # n_max.  Each row must equal the step loop over its prefix.
        from stablepac.experiment import _batch_empirical_losses

        rng = np.random.default_rng(32)
        data = generate_dataset(7, 9000)
        thetas = rng.normal(0, 0.5, size=(1, PARAM_DIM))
        ns = [1, 5, 17, 392, 393, 4096, 4097, 9000]
        rows = _batch_empirical_losses(thetas, data.inputs, data.outputs, ns)
        for n, row in zip(ns, rows):
            ref = reference_batch_losses(thetas, data.inputs[:n], data.outputs[:n])
            assert row.tobytes() == ref.tobytes(), n

    @pytest.mark.parametrize("m", [1, 2, 3, 2049])
    def test_few_sample_prefix_rows_match_step_loop_bytes(self, m):
        # Over 3000 steps, 1 to 3 samples run 8 segments of 375 steps side by
        # side in one round (one sample as two equal columns); over 300
        # steps, which keeps all of them finite, 2049 samples run one 5-step
        # segment per round.  The snapshots fall on the first two steps,
        # inside the first segment, on the last and the first step at both
        # segment boundaries (one-row pieces among them), 50 steps past the
        # second and on the last step.  numpy sums a one-column block
        # pairwise, so the first three sample counts are where a reduction
        # over a piece could leave time order.
        from stablepac.experiment import _batch_empirical_losses, _loss_round_shape

        n_max = 3000 if m < 4 else 300
        _, seg = _loss_round_shape(max(m, 2), n_max)
        ns = sorted(
            {1, 2, 7, seg, seg + 1, seg + 2, 2 * seg, 2 * seg + 1, 2 * seg + 50, n_max}
        )
        rng = np.random.default_rng(40 + m)
        data = generate_dataset(8, ns[-1])
        thetas = rng.normal(0, 0.5, size=(m, PARAM_DIM))
        got = _batch_empirical_losses(thetas, data.inputs, data.outputs, ns)
        assert got.shape == (len(ns), m)
        for n, row in zip(ns, got):
            ref = reference_batch_losses(thetas, data.inputs[:n], data.outputs[:n])
            assert row.tobytes() == ref.tobytes(), n

    @pytest.mark.parametrize("ns", [[], [0, 5], [5, 5], [9, 5], [5, 31]])
    def test_bad_prefix_lengths_rejected(self, ns):
        from stablepac.experiment import _batch_empirical_losses

        data = generate_dataset(6, 30)
        with pytest.raises(ValueError, match="prefix lengths"):
            _batch_empirical_losses(np.zeros((4, PARAM_DIM)), data.inputs, data.outputs, ns)

    def test_underflowing_weights_evaluate(self):
        # lambda = 1e4 underflows exp(-lambda * loss) for every loss above
        # about 0.075; the log-weights still give the Gibbs estimates.
        from stablepac.experiment import _batch_empirical_losses

        cfg = ExperimentConfig(
            n_grid=(20,), n_seeds=1, n_f=40, lambda_rule=1e4,
            chain=ChainSettings(burn_in=20),
        )
        data = generate_dataset(0, 20)
        (losses,) = _batch_empirical_losses(
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

    def test_one_loss_pass_per_distinct_state(self, monkeypatch):
        # The chain keeps its state on every rejected proposal; each run of
        # identical consecutive rows is simulated once, while the whole
        # cloud is certified (test_one_certification_per_seed).
        import stablepac.experiment as experiment

        simulated = []
        real = experiment._batch_empirical_losses

        def counted(thetas, *args):
            simulated.append(thetas.shape[0])
            return real(thetas, *args)

        monkeypatch.setattr(experiment, "_batch_empirical_losses", counted)
        run_experiment(SMALL)
        distinct = []
        for seed in range(SMALL.n_seeds):
            cloud = _prior_cloud(SMALL, seed)
            distinct.append(
                1 + sum(a.tobytes() != b.tobytes() for a, b in zip(cloud[1:], cloud[:-1]))
            )
        assert simulated == distinct
        assert max(distinct) < SMALL.n_f

    @pytest.mark.parametrize("base_seed", [0, 3000])
    def test_distinct_state_losses_match_full_cloud(self, base_seed):
        # About half of a 300-row chain cloud repeats the row before it.  Its
        # 164 and 142 distinct rows run 3 and 4 segments side by side (of 500
        # and 450 steps) where the full cloud runs 2 of 410, so the two passes
        # start their segments on different steps; every loss must still be
        # the full cloud's bytes.
        from stablepac.experiment import _batch_empirical_losses, _cloud_losses

        cfg = ExperimentConfig(n_grid=(9000,), n_f=300, chain=ChainSettings(base_seed=base_seed))
        cloud = _prior_cloud(cfg, 1)
        assert len({row.tobytes() for row in cloud}) < cfg.n_f
        data = generate_dataset(1, 9000)
        ns = [1, 13, 20, 27, 500, 4097, 9000]
        got = _cloud_losses(cloud, data.inputs, data.outputs, ns)
        full = _batch_empirical_losses(cloud, data.inputs, data.outputs, ns)
        assert got.tobytes() == full.tobytes()

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
    def test_each_run_of_equal_rows_simulated_once(self, monkeypatch, pattern, starts):
        import stablepac.experiment as experiment

        if pattern is None:
            cloud = self._signed_zero_pair()
        else:
            base = np.random.default_rng(2).normal(0, 0.3, size=(max(pattern) + 1, PARAM_DIM))
            cloud = base[pattern]
        data = generate_dataset(2, 40)
        full = experiment._batch_empirical_losses(cloud, data.inputs, data.outputs, [7, 40])
        simulated = []
        real = experiment._batch_empirical_losses

        def recorded(thetas, *args):
            simulated.append(thetas.copy())
            return real(thetas, *args)

        monkeypatch.setattr(experiment, "_batch_empirical_losses", recorded)
        got = experiment._cloud_losses(cloud, data.inputs, data.outputs, [7, 40])
        assert len(simulated) == 1
        assert simulated[0].tobytes() == cloud[starts].tobytes()
        assert got.tobytes() == full.tobytes()

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

    def test_run_seed_needs_n_max_rows(self):
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
    a = thetas[:, _PARAM_SLICES["a"]]
    a *= (a_norm / spectral_norm_2x2(*a.T))[:, None]
    return thetas


@pytest.fixture
def small_rounds(monkeypatch):
    """Loss rounds small enough for a short series to span several: 20
    samples run 4 segments of 40 steps side by side, warm up over 32 steps
    and step 7 at a time, so the buffers of steps end off the segments."""
    import stablepac.experiment as experiment

    monkeypatch.setattr(experiment, "_LOSS_COLUMNS", 80)
    monkeypatch.setattr(experiment, "_LOSS_ROUND_ELEMENTS", 80 * 40)
    monkeypatch.setattr(experiment, "_LOSS_CHUNK_ELEMENTS", 3 * 80 * 7)
    monkeypatch.setattr(experiment, "_LOSS_WARM_UP_STEPS", 32)
    return experiment


def _record_steps(monkeypatch, experiment):
    """Record (segments, columns, k_1) of every call of the step loop."""
    calls = []
    real = experiment._step_rows

    def recorded(coef, state, x, *rest):
        k_1 = coef[2]
        calls.append((x.shape[1], k_1.size // 3, k_1.copy()))
        return real(coef, state, x, *rest)

    monkeypatch.setattr(experiment, "_step_rows", recorded)
    return calls


class TestLossRounds:
    @pytest.mark.parametrize(
        "ns",
        [
            [40, 80, 120, 200, 640],  # on segment boundaries
            [160, 320, 480, 640],  # on round boundaries
            [1, 2, 37, 41, 100, 161, 333, 639, 640],  # inside segments
        ],
        ids=["segment-boundary", "round-boundary", "inside-segment"],
    )
    def test_snapshots_match_step_loop(self, small_rounds, ns):
        rng = np.random.default_rng(50)
        data = generate_dataset(9, 640)
        thetas = _stable_cloud(rng, 20)
        assert small_rounds._loss_round_shape(20, 640) == (4, 40)
        rows = small_rounds._batch_empirical_losses(thetas, data.inputs, data.outputs, ns)
        for n, row in zip(ns, rows):
            ref = reference_batch_losses(thetas, data.inputs[:n], data.outputs[:n])
            assert row.tobytes() == ref.tobytes(), n

    @pytest.mark.parametrize(
        "round_elements,n_max,shape",
        [
            (80 * 40, 600, (4, 38)),  # 4 rounds of 152 steps: 8 padded
            (80 * 2, 37, (4, 2)),  # 5 rounds of 8 steps: a whole segment padded
        ],
    )
    def test_short_last_round(self, small_rounds, monkeypatch, round_elements, n_max, shape):
        monkeypatch.setattr(small_rounds, "_LOSS_ROUND_ELEMENTS", round_elements)
        k, seg = small_rounds._loss_round_shape(20, n_max)
        assert (k, seg) == shape and n_max % (k * seg) != 0
        rng = np.random.default_rng(51)
        data = generate_dataset(10, n_max)
        thetas = _stable_cloud(rng, 20)
        ns = [1, n_max - 1, n_max]
        rows = small_rounds._batch_empirical_losses(thetas, data.inputs, data.outputs, ns)
        for n, row in zip(ns, rows):
            ref = reference_batch_losses(thetas, data.inputs[:n], data.outputs[:n])
            assert row.tobytes() == ref.tobytes(), n

    def test_slowly_forgetting_sample_is_rerun(self, small_rounds, monkeypatch):
        # A = 0.99 x a rotation forgets a 32-step warm-up's start by at most
        # 0.99**32, so the sample's start differs at every one of the 4 x 3
        # boundaries and is run again from the segment before's end; the
        # other samples forget theirs to the last bit and are not.
        rng = np.random.default_rng(52)
        data = generate_dataset(11, 640)
        thetas = _stable_cloud(rng, 20)
        slow = 7
        turn = 0.3
        rotation = [[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]]
        thetas[slow, _PARAM_SLICES["a"]] = 0.99 * np.ravel(rotation)
        thetas[slow, _PARAM_SLICES["b_s"]] = 1.0
        calls = _record_steps(monkeypatch, small_rounds)
        rows = small_rounds._batch_empirical_losses(
            thetas, data.inputs, data.outputs, [100, 640]
        )
        reruns = [(cols, k_1) for segs, cols, k_1 in calls if segs == 1]
        assert len(reruns) == 4 * 3
        k_1 = thetas[slow, [6, 7, 11]]
        assert all(cols == 1 and np.array_equal(got, k_1) for cols, got in reruns)
        for n, row in zip([100, 640], rows):
            ref = reference_batch_losses(thetas, data.inputs[:n], data.outputs[:n])
            assert row.tobytes() == ref.tobytes(), n

    def test_cloud_above_column_budget_runs_one_segment(self, small_rounds, monkeypatch):
        # 81 samples exceed the 80 columns: a round is one segment, one
        # buffer of 6 steps, with no warm-up and no boundary to check.
        m = small_rounds._LOSS_COLUMNS + 1
        assert small_rounds._loss_round_shape(m, 640) == (1, 6)
        rng = np.random.default_rng(53)
        data = generate_dataset(12, 640)
        thetas = _stable_cloud(rng, m)
        calls = _record_steps(monkeypatch, small_rounds)
        ns = [1, 6, 7, 100, 640]
        rows = small_rounds._batch_empirical_losses(thetas, data.inputs, data.outputs, ns)
        assert len(calls) == 107 and all(c[:2] == (1, m) for c in calls)
        for n, row in zip(ns, rows):
            ref = reference_batch_losses(thetas, data.inputs[:n], data.outputs[:n])
            assert row.tobytes() == ref.tobytes(), n

    def test_long_series_cloud_losses_match_full_cloud(self):
        # The long_series cloud at base seed 0: its 154 distinct rows run 4
        # segments of 417 steps side by side over 1e4 steps, the 300 rows
        # of the full cloud 2.
        from stablepac.experiment import (
            _batch_empirical_losses, _cloud_losses, _loss_round_shape,
        )

        cfg = ExperimentConfig(n_grid=(1000, 10000, 100000), n_seeds=1, n_f=300)
        cloud = _prior_cloud(cfg, 0)
        distinct = 1 + sum(a.tobytes() != b.tobytes() for a, b in zip(cloud[1:], cloud[:-1]))
        assert distinct == 154
        assert _loss_round_shape(154, 10000) == (4, 417)
        assert _loss_round_shape(300, 10000) == (2, 417)
        data = generate_dataset(0, 10000)
        ns = [1000, 10000]
        got = _cloud_losses(cloud, data.inputs, data.outputs, ns)
        full = _batch_empirical_losses(cloud, data.inputs, data.outputs, ns)
        assert got.tobytes() == full.tobytes()
        ref = reference_batch_losses(cloud, data.inputs[:1000], data.outputs[:1000])
        assert got[0].tobytes() == ref.tobytes()

    def test_peak_allocation_is_the_round_buffers(self):
        # 154 samples over 1e4 steps take 6 rounds.  The pass may hold one
        # round's squared errors, one buffer of steps, O(columns) state, the
        # means and numpy's ufunc buffers (getbufsize() elements for each of
        # up to three operands); all squared errors at once would be 1e4 x
        # 154 doubles, 12 MB.
        import tracemalloc

        from stablepac.experiment import _batch_empirical_losses

        rng = np.random.default_rng(54)
        thetas = _stable_cloud(rng, 154)
        data = generate_dataset(13, 10000)
        ns = [1000, 10000]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _batch_empirical_losses(thetas, data.inputs, data.outputs, ns)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Doubles: a 2**18 round, a 2**15 buffer of steps, 32 per column of
        # the 640-column budget.
        cap = (1 << 18) + (1 << 15) + 32 * 640
        assert peak <= 8 * (cap + 154 * len(ns) + 3 * np.getbufsize()), peak


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
        s0 = _PARAM_SLICES["s0"]
        from_zero, steady = cloud.copy(), cloud.copy()
        from_zero[:, s0] = 0.0
        gaps = []
        for seed in range(100, 108):
            data = generate_dataset(seed, prefix + n)
            steady[:, s0] = reference_final_states(from_zero, data.inputs[:prefix])
            window = (data.inputs[prefix:], data.outputs[prefix:], [n])
            (l_hat,) = _batch_empirical_losses(cloud, *window)
            (v_n,) = _batch_empirical_losses(steady, *window)
            gaps.append(np.abs(l_hat - v_n))
        assert np.all(np.max(gaps, axis=0) <= bound)


class TestReduce:
    def test_pairs_equal_the_scalar_calls(self):
        # Seed 0's default cloud; at (1000, 1000) exp(-lambda * loss)
        # underflows for some samples.
        cfg = ExperimentConfig(n_grid=(5, 1000), n_seeds=1)
        facts = _seed_facts(cfg, _prior_cloud(cfg, 0), generate_dataset(0, 1000))
        assert np.count_nonzero(np.exp(-1000.0 * facts.losses[1]) == 0.0) > 0
        pairs = [(5, math.sqrt(5)), (5, 1000.0), (1000, 1000.0)]
        ns, lambdas = zip(*pairs)
        got = _reduce(facts, ns, lambdas, cfg.delta)
        assert all(len(column) == len(pairs) for column in got)
        for i, (n, lambda_) in enumerate(pairs):
            losses = facts.losses[cfg.n_grid.index(n)]
            want = scalar_terms(facts, n, lambda_, losses, cfg.delta)
            assert [column[i].hex() for column in got] == [w.hex() for w in want]


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
