"""Random-walk Metropolis-Hastings sampling in the log domain.

One chain is strictly sequential and deterministic given its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidStartError
from .numerics import seeded_rng


@dataclass(frozen=True)
class ChainConfig:
    """Chain length, burn-in, thinning, proposal scale, and seed."""

    steps: int
    burn_in: int
    thin: int
    proposal_std: float
    seed: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not 0 <= self.burn_in < self.steps:
            raise ValueError("burn_in must satisfy 0 <= burn_in < steps")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.proposal_std <= 0:
            raise ValueError("proposal_std must be positive")


@dataclass(frozen=True)
class ChainResult:
    """Retained states and acceptance bookkeeping."""

    samples: np.ndarray  # (kept, d)
    accepted: int
    steps: int


def mh_sample(
    log_density: Callable[[np.ndarray], float],
    init: np.ndarray,
    cfg: ChainConfig,
) -> ChainResult:
    """Gaussian random-walk chain targeting exp(log_density).

    Proposals use coordinatewise std ``cfg.proposal_std`` and are accepted
    with probability min(1, exp(delta log-density)); proposals landing at
    -inf are always rejected.  Retains the post-burn-in states thinned by
    ``cfg.thin``: exactly floor((steps - burn_in)/thin) of them.
    """
    x = np.asarray(init, dtype=float).copy()
    ld = float(log_density(x))
    if not math.isfinite(ld):
        raise InvalidStartError(f"log density at the initial point is {ld}")
    rng = seeded_rng(cfg.seed)
    d = x.size
    kept = []
    accepted = 0
    for step in range(1, cfg.steps + 1):
        prop = x + cfg.proposal_std * rng.normal(size=d)
        u = rng.uniform()
        ld_prop = float(log_density(prop))
        if ld_prop > -math.inf and (
            ld_prop >= ld or (u > 0.0 and math.log(u) < ld_prop - ld)
        ):
            x = prop
            ld = ld_prop
            accepted += 1
        if step > cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
            kept.append(x.copy())
    return ChainResult(
        samples=np.array(kept).reshape(len(kept), d),
        accepted=accepted,
        steps=cfg.steps,
    )
