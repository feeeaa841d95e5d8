"""One benchmark experiment in a fresh process; prints one JSON line.

Run from the root of a checkout by ``run.py``:

    PERFBENCH_T0=<CLOCK_MONOTONIC at spawn> PYTHONPATH=src \
        python3 perfbench/child.py --config '<json>' --out DIR [--trace] [--setup-only]

The process makes the calls ``stablepac experiment`` makes: it builds an
``ExperimentConfig`` from the JSON document, calls ``run_experiment`` and then
``write_outputs``.  ``setup_s`` runs from the spawn stamp to the moment the
configuration exists, so it includes interpreter start and ``import
stablepac``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy as np
    import stablepac
    import stablepac.experiment as experiment

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(stablepac.__file__).startswith(src + os.sep):
        print(f"stablepac imported from {stablepac.__file__}, not from {src}", file=sys.stderr)
        return 2
    cfg = experiment.ExperimentConfig.from_dict(json.loads(args.config))
    result = {"setup_s": _now() - float(os.environ["PERFBENCH_T0"])}
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import hostspeed

    tracer = None
    if args.trace:
        import stablepac.certify  # noqa: F401  (traced through sys.modules)
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(sys.modules)

    # Untraced experiments sample the host speed while they run (hostspeed.py);
    # run_s and cell_s leave the probes out.  Traced experiments do not
    # sample, so no probe lands inside a span.
    sampler = hostspeed.Sampler()
    spans = []
    mark = (time.perf_counter(), 0.0)

    def end_span(_msg: str = "") -> None:
        nonlocal mark
        now = (time.perf_counter(), sampler.probe_s)
        spans.append((now[0] - mark[0]) - (now[1] - mark[1]))
        mark = now

    try:
        with contextlib.nullcontext() if args.trace else sampler:
            reports = experiment.run_experiment(cfg, progress=end_span)
            experiment.write_outputs(cfg, reports, args.out)
            end_span()
    except Exception as exc:  # every cell of this run counts as failed
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    else:
        result["run_s"] = sum(spans)
        result["cells"] = len(reports)
        result["cell_s"] = spans[:-1]
        if sampler.speeds:
            result["scaled_run_s"] = result["run_s"] * sampler.scale()
            result["probes"] = len(sampler.speeds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
