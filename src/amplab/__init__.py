"""Numerical laboratory for AMP on spiked symmetric random matrices.

The package runs approximate message passing orbits (with and without the
memory-correction term, and with spectral initialization), computes the
deterministic state-evolution predictions they track, and orchestrates the
experiments that compare Gaussian against general sub-Gaussian noise.
"""

from .engine import (
    AmpOrbit,
    onsager_coeffs,
    phi_average,
    phi_pair_average,
    run_generalized,
    run_onsager,
    run_spectral_amp,
)
from .ensembles import (
    EnsembleSpec,
    InterpolatedNoise,
    PriorSpec,
    SpikeSpec,
    SpikedOperator,
    TrialStreams,
    build_spiked,
    derive_streams,
    sample_prior,
    sample_wigner,
)
from .errors import (
    AccuracyError,
    AmpLabError,
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    NumericalFailureError,
    PreconditionError,
    RejectedInputError,
)
from .linalg import (
    EigenDecomp,
    SymmetricMatrix,
    jacobi_eigendecomp,
    jacobi_eigendecomp_stack,
    sym_matvec,
)
from .nonlinear import (
    Denoiser,
    TestFunction,
    denoiser_eval,
    denoiser_partial,
    fd_partial,
)
from .spectral import (
    GapCheckResult,
    gap_check,
    power_method,
    resolve_power_depth,
    spectral_init,
)
from .state_evolution import (
    QuadratureSpec,
    SEParams,
    bayes_tanh_schedule,
    se_covariance,
    se_predict_phi,
    se_spiked,
)

__version__ = "0.1.0"
