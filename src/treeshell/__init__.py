"""Tree-indexed dyadic shell model with repeated coefficients.

Constructs the unique constant finite-energy solution, evaluates its
multifractal apparatus (structure-function exponents, singularity
dimensions, anomalous-dissipation measure) in closed form, simulates the
truncated time-dependent model and validates the scaling exponents by
wavelet synthesis in physical space.
"""

__version__ = "0.1.0"

from .coefficients import (
    GeneralCoefficients,
    RcmModel,
    RepeatedCoefficients,
    lambda_family,
    model_from_dict,
)
from .solution import (
    ConstantSolution,
    DivergenceWitness,
    PullbackRun,
    divergence_witness,
    pullback,
)
from .spectra import fixed_point_q
from .tree import ResourceLimitError

__all__ = [
    "__version__",
    "RepeatedCoefficients",
    "GeneralCoefficients",
    "RcmModel",
    "lambda_family",
    "model_from_dict",
    "ConstantSolution",
    "fixed_point_q",
    "pullback",
    "PullbackRun",
    "divergence_witness",
    "DivergenceWitness",
    "ResourceLimitError",
]
