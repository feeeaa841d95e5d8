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
from stablepac.bound import psi2_exponent
from stablepac.errors import ConfigError
from stablepac.experiment import (
    _LOSS_CHUNK_ELEMENTS,
    PARAM_DIM,
    ChainSettings,
    _cell_chain_seed,
    _prior_cloud,
    emit_curves,
    write_outputs,
)
from stablepac.numerics import spectral_norm_2x2

from helpers import autocorrelation_time, benchmark_predictor



def reference_batch_losses(thetas, inputs, labels):
    """Per-step cloud loop: the reference the buffered loss loop must match bit for bit."""
    x, y = inputs[:, 0], labels[:, 0]
    a00, a01, a10, a11 = thetas[:, 0], thetas[:, 1], thetas[:, 2], thetas[:, 3]
    bb0, bb1, c0, c1 = thetas[:, 4], thetas[:, 5], thetas[:, 6], thetas[:, 7]
    w0, w1, dd, by = thetas[:, 8], thetas[:, 9], thetas[:, 10], thetas[:, 11]
    s0, s1 = thetas[:, 12].copy(), thetas[:, 13].copy()
    acc = np.zeros(thetas.shape[0])
    for t in range(x.shape[0]):
        yhat = np.tanh(w0 * s0 + w1 * s1 + dd * x[t] + by)
        diff = yhat - y[t]
        acc += diff * diff
        p0 = np.maximum(a00 * s0 + a01 * s1 + bb0 * x[t] + c0, 0.0)
        s1 = np.maximum(a10 * s0 + a11 * s1 + bb1 * x[t] + c1, 0.0)
        s0 = p0
    return acc / x.shape[0]



def reference_run_cell(cfg, seed, n, data, chain_n=None):
    """One (seed, n) cell from its own chain and a separate loss pass over the prefix.

    With chain_n left at n this is the per-cell evaluation that drew one
    cloud per cell; a seed's shared cloud is the one drawn for chain_n = n_max.
    """
    from stablepac.bound import (
        BoundReport, gibbs_log_estimates, pac_bound, pooled_psi, psi1_exponent,
    )
    from stablepac.experiment import certify_cloud
    from stablepac.mixing import generator_data_constants

    thetas = _prior_cloud(dataclasses.replace(cfg, n_grid=(chain_n or n,)), seed)
    lambda_ = cfg.lambda_for(n)
    dc = generator_data_constants(build_reference_generator(), cfg.e_inf)
    consts, gh, l_ell, s0_norm = certify_cloud(thetas, dc, cfg.tau_max)
    losses = reference_batch_losses(thetas, data.inputs[:n], data.outputs[:n])
    z_hat, kl, post = gibbs_log_estimates(-lambda_ * losses, losses)
    ph = pooled_psi(
        psi1_exponent(lambda_, n, l_ell, dc, gh),
        psi2_exponent(lambda_, n, l_ell, consts, dc.b_q, gh, s0_norm),
    )
    r_n = pac_bound(lambda_, cfg.delta, kl, ph)
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
        assert block.keys() == ExperimentConfig().to_dict().keys()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="n_seed"):
            ExperimentConfig.from_dict({"n_seed": 3})

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(
            n_grid=(10, 20), n_f=100, lambda_rule=3.0,
            chain=ChainSettings(proposal_std=0.1, burn_in=10, thin=2, base_seed=5),
        )
        doc = json.loads(json.dumps(cfg.to_dict()))
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
        from stablepac.bound import psi1_exponent
        from stablepac.experiment import build_reference_generator, certify_cloud
        from stablepac.mixing import generator_data_constants

        cfg = ExperimentConfig(n_grid=(30,), n_f=300, chain=ChainSettings(burn_in=100))
        dc = generator_data_constants(build_reference_generator(), 1.27)
        consts, gh, l_ell, s0_norm = certify_cloud(_prior_cloud(cfg, 1), dc, 0.995)
        assert np.all(consts.tau < 0.995)
        lambda_ = math.sqrt(30)
        psi1 = psi1_exponent(lambda_, 30, l_ell, dc, gh)
        psi2 = psi2_exponent(lambda_, 30, l_ell, consts, dc.b_q, gh, s0_norm)
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
            (_LOSS_CHUNK_ELEMENTS + 1, 4),
            (1, 9000),
        ],
    )
    def test_batch_losses_match_step_loop(self, m, n):
        # A buffer holds 2**14 // (4 * m) steps, at least one and at most n:
        # 300 samples over 500 steps span 39 buffers of 13 steps, the last
        # of 6; 4999 samples take one step per buffer, and so do the 5000 of
        # the reference cloud; one sample takes all 3 steps in one buffer;
        # 1300 samples leave 3 steps per buffer and a one-step remainder;
        # more samples than 2**14 take one step per buffer too; one sample
        # over 9000 steps spans three buffers of up to 4096 steps, where a
        # sum over a buffer's steps in one reduction would be pairwise, not
        # in time order.
        from stablepac.experiment import _batch_empirical_losses

        rng = np.random.default_rng(m)
        data = generate_dataset(5, n)
        thetas = rng.normal(0, 0.5, size=(m, PARAM_DIM))
        (batch,) = _batch_empirical_losses(thetas, data.inputs, data.outputs, [n])
        ref = reference_batch_losses(thetas, data.inputs, data.outputs)
        assert batch.tobytes() == ref.tobytes()

    def test_cell_chain_seeds_distinct_across_base_seeds(self):
        # (base_seed=b, seed=s) used to share the chain of (b-1, s+1)
        assert _cell_chain_seed(1, 0, 100) != _cell_chain_seed(0, 1, 100)
        cells = [
            (b, s, n)
            for b in (0, 1, 2, 1000, 2000)
            for s in range(10)
            for n in (5, 9, 20, 50, 100, 1000, 10_000, 100_000)
        ]
        assert len({_cell_chain_seed(*c) for c in cells}) == len(cells)
        # base seed 0 keeps the reference experiment's seeds
        assert all(_cell_chain_seed(0, s, n) == s * 1_000_003 + n for _, s, n in cells)

    def test_prefix_loss_rows_match_separate_passes(self):
        # 300 samples give 2**14 // (4 * 300) = 13 steps per buffer: n = 1,
        # n on a buffer boundary (13, 26), n off it (20) and n_max.
        from stablepac.experiment import _batch_empirical_losses

        rng = np.random.default_rng(31)
        data = generate_dataset(6, 500)
        thetas = rng.normal(0, 0.5, size=(300, PARAM_DIM))
        ns = [1, 13, 20, 26, 500]
        rows = _batch_empirical_losses(thetas, data.inputs, data.outputs, ns)
        assert rows.shape == (len(ns), 300)
        for n, row in zip(ns, rows):
            (alone,) = _batch_empirical_losses(thetas, data.inputs, data.outputs, [n])
            assert row.tobytes() == alone.tobytes()
        ref = reference_batch_losses(thetas, data.inputs[:20], data.outputs[:20])
        assert rows[2].tobytes() == ref.tobytes()

    def test_one_sample_prefix_rows_sum_in_time_order(self):
        # One sample gives 4096-step buffers: n = 1, 5 and 17 inside the
        # first, n on its last step and on the next buffer's first, and n_max
        # in the third.  Each row must equal the step loop over its prefix.
        from stablepac.experiment import _batch_empirical_losses

        rng = np.random.default_rng(32)
        data = generate_dataset(7, 9000)
        thetas = rng.normal(0, 0.5, size=(1, PARAM_DIM))
        ns = [1, 5, 17, 4096, 4097, 9000]
        rows = _batch_empirical_losses(thetas, data.inputs, data.outputs, ns)
        for n, row in zip(ns, rows):
            ref = reference_batch_losses(thetas, data.inputs[:n], data.outputs[:n])
            assert row.tobytes() == ref.tobytes(), n

    @pytest.mark.parametrize("m", [1, 2, 3, 2049])
    def test_few_sample_prefix_rows_match_step_loop_bytes(self, m):
        # A buffer holds 2**14 // (4 * m) steps: 4096, 2048, 1365 and 1.  The
        # snapshots fall on the first two steps, inside the first buffer, on
        # the last and the first step at both buffer boundaries (one-step
        # buffers among them) and inside the third buffer.  numpy sums a
        # one-column block pairwise, so the first three sample counts are
        # where a reduction over a buffer could leave time order; with one
        # step per buffer, every buffer's sum is an in-place addition.
        from stablepac.experiment import _batch_empirical_losses

        rows = _LOSS_CHUNK_ELEMENTS // (4 * m)
        ns = sorted(
            {1, 2, 7, rows, rows + 1, rows + 2, 2 * rows, 2 * rows + 1, 2 * rows + 50}
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

    def test_chain_seed_equal_to_a_data_seed_rejected_before_sampling(
        self, monkeypatch
    ):
        # Base seed 0 gives seed 0 the chain seed n_max; below n_seeds that
        # is a data seed's stream.
        import stablepac.experiment as experiment

        seeds = []
        real = experiment.seeded_rng
        monkeypatch.setattr(
            experiment, "seeded_rng", lambda seed: seeds.append(seed) or real(seed)
        )
        cfg = ExperimentConfig(n_grid=(2,), n_seeds=3, n_f=10, chain=ChainSettings(burn_in=5))
        with pytest.raises(ConfigError, match="seed 0 would reuse the stream of data seed 2"):
            run_experiment(cfg)
        assert seeds == []
        # n_max = n_seeds and a nonzero base seed both keep the streams apart.
        for other in (
            dataclasses.replace(cfg, n_grid=(3,)),
            dataclasses.replace(cfg, chain=ChainSettings(burn_in=5, base_seed=1)),
        ):
            assert len(run_experiment(other)) == 3

    def test_one_chain_per_seed(self, monkeypatch):
        # Each seed opens one stream for its data and then one for its chain,
        # seeded with the cell seed of the largest n.
        import stablepac.experiment as experiment

        seeds = []
        real = experiment.seeded_rng

        def recorded(seed):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(experiment, "seeded_rng", recorded)
        run_experiment(SMALL)
        n_max = SMALL.n_grid[-1]
        assert seeds == [
            seed
            for s in range(SMALL.n_seeds)
            for seed in (s, _cell_chain_seed(0, s, n_max))
        ]

    def test_one_dataset_per_seed(self, monkeypatch, tmp_path):
        # write_outputs writes each seed's trajectory from the dataset
        # run_experiment evaluated, without generating it again.
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
        assert len(calls) == SMALL.n_seeds
        for seed in range(SMALL.n_seeds):
            ref = tmp_path / f"ref{seed}.csv"
            save_trajectory(real(seed, n_max, SMALL.e_std, SMALL.e_inf), str(ref))
            written = out / f"trajectory_seed{seed}.csv"
            assert written.read_bytes() == ref.read_bytes()

    def test_one_certification_per_seed(self, monkeypatch):
        import stablepac.experiment as experiment

        clouds = []
        real = experiment.certify_cloud

        def counted(thetas, *args, **kwargs):
            clouds.append(thetas.shape[0])
            return real(thetas, *args, **kwargs)

        monkeypatch.setattr(experiment, "certify_cloud", counted)
        run_experiment(SMALL)
        assert clouds == [SMALL.n_f] * SMALL.n_seeds

    def test_reports_match_per_cell_reference(self, reports):
        # Each seed's n_max cell is the per-cell evaluation unchanged; the
        # smaller n reuse that cell's cloud on a data prefix.
        n_max = SMALL.n_grid[-1]
        for seed in range(SMALL.n_seeds):
            data = generate_dataset(seed, n_max)
            mine = [r for r in reports if r.seed == seed]
            assert mine[-1] == reference_run_cell(SMALL, seed, n_max, data)
            assert mine == [
                reference_run_cell(SMALL, seed, n, data, chain_n=n_max)
                for n in SMALL.n_grid
            ]

    def test_run_seed_needs_n_max_rows(self):
        with pytest.raises(ValueError, match="need at least 20"):
            run_seed(SMALL, 0, generate_dataset(0, 19))

    def test_chain_seeds_differ_from_data_seeds(self):
        # A shared PCG64 stream would make the prior depend on the data.
        data_seeds = set(range(10))
        for b in (0, 1, 1000):
            for n_max in (20, 100, 1000, 100_000):
                assert all(_cell_chain_seed(b, s, n_max) not in data_seeds for s in range(10))

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

    def test_matches_per_sample_functions(self):
        from stablepac import gain_pair, loss_lipschitz, psi1_exponent
        from stablepac.experiment import certify_cloud
        from stablepac.mixing import generator_data_constants

        rng = np.random.default_rng(21)
        thetas = self.cloud(rng)
        assert thetas.shape[0] > 250
        dc = generator_data_constants(build_reference_generator(), 1.27)
        spec = LossSpec(kind="square")
        arr, arr_gh, arr_l_ell, arr_s0_norm = certify_cloud(thetas, dc, self.TAU_MAX)
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
        from stablepac.experiment import certify_cloud
        from stablepac.mixing import generator_data_constants

        thetas = np.zeros((3, PARAM_DIM))
        thetas[1, 0] = self.TAU_MAX
        dc = generator_data_constants(build_reference_generator(), 1.27)
        with pytest.raises(RuntimeError, match="sample 1 .*prior truncation failed"):
            certify_cloud(thetas, dc, self.TAU_MAX)


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
