"""Generalisation-gap bounds for exponentially stable recurrent predictors.

Certifies stability of RNN-shaped state-space systems, derives the data and
robustness constants the bound needs, and evaluates the bound by prior
sampling with Gibbs-posterior reweighting on dependent time-series data.
"""

from .bound import (
    BoundReport,
    SampleRecord,
    gibbs_estimates,
    gibbs_log_estimates,
    pac_bound,
    pooled_psi,
    psi1_exponent,
    psi2_exponent,
    psi_hat,
)
from .certify import (
    GainPair,
    StabilityConstants,
    gain_pair,
    rnn_constants,
    series_compose,
)
from .dynsys import (
    Activation,
    RnnSystem,
    Trajectory,
    activation,
    burn_in_length,
    load_model,
    save_model,
    save_trajectory,
    simulate,
    simulate_series,
)
from .errors import (
    ConfigError,
    DegenerateTruncationError,
    GainOverflowError,
    InstabilityError,
    InvalidConfidenceError,
    KernelBuildError,
    NotStableError,
    SingularCompositionError,
    StablepacError,
)
from .experiment import (
    ExperimentConfig,
    build_reference_generator,
    generate_dataset,
    run_experiment,
    run_seed,
)
from .loss import (
    LossSpec,
    empirical_loss,
    infinite_horizon_loss,
    loss_lipschitz,
    loss_value,
    transient_gap_bound,
)
from .mixing import (
    DataConstants,
    data_constants,
    generator_data_constants,
    saturation_bound,
)
from .numerics import (
    discrete_lyapunov,
    log_mean_exp,
    seeded_rng,
    spectral_norm,
    truncated_gaussian,
)

__all__ = [name for name in dir() if not name.startswith("_")]
