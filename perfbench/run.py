"""stablepac benchmark: batch experiments timed end to end, with a traced breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 10 --trace 0

Each experiment runs in a fresh single-threaded process (``child.py``) that
imports the package from ``src/`` and makes the calls ``stablepac
experiment`` makes.  The run repeats experiments until ``--seconds`` have
passed (at least one), checks every experiment's report files, and prints a
detail line and then the result line.  With ``--trace 1`` each repetition is
an untraced experiment followed by a traced one, and the result line holds
the per-layer metrics.  The run pins itself and its children to one CPU, and
untraced experiments scale their times to a fixed host speed
(``hostspeed.py``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import bound_quality, check_reports, digests  # noqa: E402

REFERENCE_N_GRID = [5, 9, 20, 50, 100, 200, 500, 1000]
DELTA = 0.025

# Every workload is an ExperimentConfig document; chain and prior settings
# are the program's defaults.  Seed counts keep one experiment between about
# 4 and 25 s on a 2-core machine, so a run repeats the shorter ones and
# reports their median.
WORKLOADS = {
    # Reference shape: per-sample sampling and certification dominate, and a
    # seed's eight cells share one dataset.
    "grid": {"n_grid": REFERENCE_N_GRID, "n_seeds": 1, "n_f": 5000, "delta": DELTA},
    # Same per-cell work as grid, but no two cells share a seed.
    "seed_sweep": {"n_grid": [100], "n_seeds": 2, "n_f": 5000, "delta": DELTA},
    # Long series and a small cloud: per-time-step data generation, loss
    # simulation and trajectory output dominate.
    "long_series": {
        "n_grid": [1000, 10000, 100000], "n_seeds": 1, "n_f": 300, "delta": DELTA,
    },
}

# Data seeds are 0..n_seeds-1 and the program's cell chain seed is
# (base_seed + data_seed) * 1_000_003 + n, so base seeds closer than n_seeds
# share chains.  Benchmark seeds map to base seeds this far apart.
BASE_SEED_SPACING = 1000
assert all(w["n_seeds"] <= BASE_SEED_SPACING for w in WORKLOADS.values())

# Processes that only import the package and build the configuration.  A
# few run before every experiment, so slow spells of a shared machine hit
# only some of the samples.
SETUP_PER_REPETITION = 2
MIN_SETUP_SAMPLES = 8
# A run must end within 180 s; no experiment starts unless it can end by here.
RUN_LIMIT_S = 170.0
WORK_DIR = ".perfbench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


class ChildFailed(Exception):
    pass


def run_child(config: dict, timeout: float, out: str | None = None,
              trace: bool = False, setup_only: bool = False) -> dict:
    """Run child.py once and return its JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--config", json.dumps(config)]
    if out is not None:
        cmd += ["--out", out]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, "PYTHONPATH": "src", **{var: "1" for var in THREAD_VARS}}
    env["PERFBENCH_T0"] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child exceeded its {timeout:.0f} s limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def distribution(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    out = {"n": len(xs), "median": statistics.median(xs) if xs else None, "tail": None}
    if len(xs) >= 11:
        k = len(xs) - 11
        out["tail"] = {"pct": 100.0 * (k + 1) / len(xs), "value": xs[k]}
    return out


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob("src/**/*.py", recursive=True)):
        h.update(path.encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_sha() -> str | None:
    if not os.path.isdir(".git"):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(path, "*")))


class DigestStore:
    """Report digests of earlier runs of the same source and configuration."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.known = json.load(fh)
        except FileNotFoundError:
            self.known = {}

    def check_and_record(self, key: str, found: dict) -> str | None:
        want = self.known.setdefault(key, found)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
        if want != found:
            return f"digests {found} differ from an earlier run's {want}"
        return None


def per_layer(traced: dict, untraced_run_s: float) -> dict:
    """Per-layer metrics of one traced experiment."""
    t = traced["trace"]
    calls, busy, self_s = t["calls"], t["busy_s"], t["self_s"]
    steps = t["chain_steps"]
    return {
        "numerics.spectral_norm.calls": (calls.get("numerics.spectral_norm", 0), "count"),
        "numerics.spectral_norm.busy_s": (busy.get("numerics.spectral_norm", 0.0), "s"),
        "mcmc.mh_sample.calls": (calls.get("mcmc.mh_sample", 0), "count"),
        "mcmc.mh_sample.busy_s": (busy.get("mcmc.mh_sample", 0.0), "s"),
        "mcmc.steps": (steps, "count"),
        "mcmc.accept_ratio": (t["chain_accepted"] / steps if steps else 0.0, "ratio"),
        "mcmc.prior_reject_ratio": (t["prior_rejects"] / steps if steps else 0.0, "ratio"),
        "certify.rnn_constants.calls": (calls.get("certify.rnn_constants", 0), "count"),
        "certify.rnn_constants.busy_s": (busy.get("certify.rnn_constants", 0.0), "s"),
        "certify.gain_pair.busy_s": (busy.get("certify.gain_pair", 0.0), "s"),
        "experiment.predictor_from_theta.busy_s":
            (busy.get("experiment.predictor_from_theta", 0.0), "s"),
        "experiment.evaluate_cloud.busy_s": (busy.get("experiment.evaluate_cloud", 0.0), "s"),
        "experiment.evaluate_cloud.self_s": (self_s.get("experiment.evaluate_cloud", 0.0), "s"),
        "experiment.run_cell.calls": (calls.get("experiment.run_cell", 0), "count"),
        "experiment.run_cell.busy_s": (busy.get("experiment.run_cell", 0.0), "s"),
        "experiment.generate_dataset.calls": (calls.get("experiment.generate_dataset", 0), "count"),
        "experiment.generate_dataset.busy_s":
            (busy.get("experiment.generate_dataset", 0.0), "s"),
        "dynsys.simulate.busy_s": (busy.get("dynsys.simulate", 0.0), "s"),
        "experiment.write_outputs.busy_s": (busy.get("experiment.write_outputs", 0.0), "s"),
        "experiment.write_outputs.bytes": (traced["out_bytes"], "bytes"),
        "dynsys.save_trajectory.busy_s": (busy.get("dynsys.save_trajectory", 0.0), "s"),
        "loss.loss_lipschitz.busy_s": (busy.get("loss.loss_lipschitz", 0.0), "s"),
        "bound.busy_s": (sum(v for k, v in busy.items() if k.startswith("bound.")), "s"),
        "mixing.generator_data_constants.busy_s":
            (busy.get("mixing.generator_data_constants", 0.0), "s"),
        "traced.peak_rss_mb": (traced["peak_rss_mb"], "MB"),
        "traced.run_s": (traced["run_s"], "s"),
        "trace.overhead_ratio": (traced["run_s"] / untraced_run_s, "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join("src", "stablepac", "__init__.py")):
        print("no src/stablepac here: run from the root of a stablepac checkout",
              file=sys.stderr)
        return 2
    # The experiment and its host-speed probes must share one CPU: the CPUs
    # of a shared host change speed independently of each other.  Children
    # inherit the affinity.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    workload = WORKLOADS[args.workload]
    base_seed = args.seed * BASE_SEED_SPACING
    config = {**workload, "chain": {"base_seed": base_seed}}
    cells_per_experiment = workload["n_seeds"] * len(workload["n_grid"])
    os.makedirs(WORK_DIR, exist_ok=True)
    src_sha = source_sha256()
    store = DigestStore(os.path.join(WORK_DIR, "digests.json"))
    config_sha = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    store_key = f"{args.workload}:{config_sha}:{src_sha}"

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    setups, untraced, traced, errors = [], [], [], []
    attempted = failed = 0
    run_digests: dict | None = None
    quality = None

    def experiment(trace: bool) -> dict | None:
        nonlocal attempted, failed, run_digests, quality
        out = os.path.join(WORK_DIR, f"out-{args.workload}-{len(untraced) + len(traced)}")
        shutil.rmtree(out, ignore_errors=True)
        attempted += cells_per_experiment
        try:
            res = run_child(config, remaining(), out=out, trace=trace)
            if "error" in res:
                raise ChildFailed(res["error"])
        except ChildFailed as exc:
            errors.append(str(exc))
            failed += cells_per_experiment
            shutil.rmtree(out, ignore_errors=True)
            return None
        checked = check_reports(out, workload["n_grid"], workload["n_seeds"],
                                workload["n_f"], workload["delta"])
        problems = checked.messages()
        if not checked.run_errors:
            found = digests(out)
            mismatch = store.check_and_record(store_key, found)
            if run_digests is None:
                run_digests = found
            elif found != run_digests:
                mismatch = f"digests {found} differ within the run from {run_digests}"
            if mismatch:
                problems.append(mismatch)
                checked.run(mismatch)
            quality = quality or bound_quality(out)
        errors.extend(problems)
        failed += checked.failed_cells
        res["out_bytes"] = _dir_bytes(out)
        shutil.rmtree(out, ignore_errors=True)
        return res

    def measure_setup(count: int) -> None:
        setups.extend(run_child(config, remaining(), setup_only=True) for _ in range(count))

    try:
        measure_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            measure_setup(SETUP_PER_REPETITION)
            res = experiment(trace=False)
            if res is None:
                break
            untraced.append(res)
            if args.trace:
                res = experiment(trace=True)
                if res is None:
                    break
                traced.append(res)
            last = time.monotonic() - t0
            if time.monotonic() - measure_start >= args.seconds or last * 1.2 > remaining():
                break
        measure_setup(MIN_SETUP_SAMPLES - len(setups))
    except ChildFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    # A set-up sample is scaled like the experiment it ran before (the last
    # one for the samples after the loop), or like itself for an experiment.
    scales = [r["scaled_run_s"] / r["run_s"] for r in untraced] or [1.0]
    setup_samples = [
        s["setup_s"] * scales[min(i // SETUP_PER_REPETITION, len(scales) - 1)]
        for i, s in enumerate(setups)
    ] + [r["setup_s"] * f for r, f in zip(untraced, scales)]
    run_s = [r["scaled_run_s"] for r in untraced]
    wall_run_s = [r["run_s"] for r in untraced]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "config": config,
        "env": {
            "git_sha": git_sha(),
            "source_sha256": src_sha,
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            **setups[0]["versions"],
        },
        "experiments": {"untraced": len(untraced), "traced": len(traced)},
        "run_s": distribution(run_s),
        "run_s_samples": run_s,
        "wall_run_s": distribution(wall_run_s),
        "wall_run_s_samples": wall_run_s,
        "host_scales": scales,
        "probes": [r["probes"] for r in untraced],
        "cell_s": distribution([c for r in untraced for c in r["cell_s"]]),
        "setup_s": distribution(setup_samples),
        "cells_failed_ratio": failed / attempted,
        "digests": run_digests,
        "bound_quality": quality,
        "errors": errors[:20],
    }

    if args.trace:
        layers = [per_layer(t, u["run_s"]) for t, u in zip(traced, untraced)]
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in layers),
                   "unit": unit}
            for name, (_, unit) in (layers[0].items() if layers else [])
        }
        detail["trace"] = traced[-1]["trace"] if traced else None
    else:
        metrics = {}
        if untraced:
            metrics = {
                "run_s": {"value": statistics.median(run_s), "unit": "s"},
                "cells_per_s": {
                    "value": statistics.median(r["cells"] / r["scaled_run_s"]
                                               for r in untraced),
                    "unit": "1/s",
                },
                "peak_rss_mb": {
                    "value": statistics.median(r["peak_rss_mb"] for r in untraced),
                    "unit": "MB",
                },
            }
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
        metrics["cells_ok_ratio"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}

    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
