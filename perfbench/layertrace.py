"""Per-layer tracing installed from outside the program.

Each traced name is replaced, in the namespace of the module that calls it,
by a wrapper that times the call.  Wrappers share one stack, so every span
knows its parent and a layer's self time is its busy time minus the busy
time of the traced spans directly below it.  Spans are aggregated per name
as they close (calls, busy seconds, self seconds) instead of being kept one
by one: certification alone makes tens of thousands of calls per cell.
"""

from __future__ import annotations

import math
import time
from typing import Callable

# (module, attribute, span name).  Every name is looked up where the pipeline
# calls it, so the wrapper sees the calls the pipeline makes.
TRACED = [
    ("stablepac.experiment", "run_cell", "experiment.run_cell"),
    ("stablepac.experiment", "generate_dataset", "experiment.generate_dataset"),
    ("stablepac.experiment", "evaluate_cloud", "experiment.evaluate_cloud"),
    ("stablepac.experiment", "predictor_from_theta", "experiment.predictor_from_theta"),
    ("stablepac.experiment", "write_outputs", "experiment.write_outputs"),
    ("stablepac.experiment", "mh_sample", "mcmc.mh_sample"),
    ("stablepac.experiment", "spectral_norm", "numerics.spectral_norm"),
    ("stablepac.certify", "spectral_norm", "numerics.spectral_norm"),
    ("stablepac.experiment", "rnn_constants", "certify.rnn_constants"),
    ("stablepac.experiment", "gain_pair", "certify.gain_pair"),
    ("stablepac.experiment", "loss_lipschitz", "loss.loss_lipschitz"),
    ("stablepac.experiment", "simulate", "dynsys.simulate"),
    ("stablepac.experiment", "save_trajectory", "dynsys.save_trajectory"),
    ("stablepac.experiment", "generator_data_constants", "mixing.generator_data_constants"),
    ("stablepac.experiment", "psi1_exponent", "bound.psi1_exponent"),
    ("stablepac.experiment", "psi2_exponent", "bound.psi2_exponent"),
    ("stablepac.experiment", "psi_hat", "bound.psi_hat"),
    ("stablepac.experiment", "gibbs_weights", "bound.gibbs_weights"),
    ("stablepac.experiment", "gibbs_estimates", "bound.gibbs_estimates"),
    ("stablepac.experiment", "pac_bound", "bound.pac_bound"),
]
# Factory of the truncated log-prior; the closure it returns is wrapped to
# count the proposals the truncation rejects.
PRIOR_FACTORY = ("stablepac.experiment", "stability_truncated_log_prior")


class Tracer:
    """Span aggregates of one traced run plus the chain's own counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.child: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, child seconds]
        self.absent: list[str] = []
        self.prior_calls = 0
        self.prior_rejects = 0
        self.chain_steps = 0
        self.chain_accepted = 0

    def wrap(self, fn: Callable, name: str) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dt = clock() - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.busy[name] = self.busy.get(name, 0.0) + dt
                self.child[name] = self.child.get(name, 0.0) + frame[2]
                if stack:
                    stack[-1][2] += dt
            if name == "mcmc.mh_sample":
                self.chain_steps += getattr(result, "steps", 0)
                self.chain_accepted += getattr(result, "accepted", 0)
            return result

        return traced

    def wrap_prior_factory(self, factory: Callable) -> Callable:
        def traced_factory(*args, **kwargs):
            log_prior = factory(*args, **kwargs)

            def counted(theta):
                value = log_prior(theta)
                self.prior_calls += 1
                if value == -math.inf:
                    self.prior_rejects += 1
                return value

            return counted

        return traced_factory

    def install(self, modules: dict) -> None:
        """Replace every traced name that exists; record the missing ones."""
        for mod_name, attr, span in TRACED:
            mod = modules[mod_name]
            if not hasattr(mod, attr):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self.wrap(getattr(mod, attr), span))
        mod_name, attr = PRIOR_FACTORY
        mod = modules[mod_name]
        if hasattr(mod, attr):
            setattr(mod, attr, self.wrap_prior_factory(getattr(mod, attr)))
        else:
            self.absent.append(f"{mod_name}.{attr}")

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "busy_s": self.busy,
            "self_s": {k: self.busy[k] - self.child[k] for k in self.busy},
            "absent": self.absent,
            "prior_calls": self.prior_calls,
            "prior_rejects": self.prior_rejects,
            "chain_steps": self.chain_steps,
            "chain_accepted": self.chain_accepted,
        }
