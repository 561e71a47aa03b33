"""Numerical laboratory for AMP on spiked symmetric random matrices.

The package runs approximate message passing orbits (with and without the
memory-correction term, and with spectral initialization), computes the
deterministic state-evolution predictions they track, and orchestrates the
experiments that compare Gaussian against general sub-Gaussian noise.
The namespace holds README's Library API and the exceptions; import the rest from its module.
"""

from .engine import (
    phi_pair_average,
    run_onsager,
)
from .ensembles import (
    EnsembleSpec,
    PriorSpec,
    SpikeSpec,
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
from .experiments import run_spectral_amp
from .nonlinear import TestFunction
from .state_evolution import (
    bayes_tanh_schedule,
    se_predict_phi,
)

__version__ = "0.1.0"
