"""spikelab: spiked random-matrix analytics and Monte Carlo verification.

Computes, for additively deformed Wigner and multiplicatively spiked
sample-covariance models, which spikes of the deformation generate
outlier eigenvalues, where those outliers land, the limiting squared
overlap of outlier eigenvectors with the spike eigenspace, the support
and density of the limiting spectral law, and checks every prediction
against seeded finite-N simulations.
"""

from . import cli, ensemble, free_additive, free_multiplicative, measure, verify
from .ensemble import EnsembleSample, SpikedModelSpec
from .errors import (
    DegenerateOutlierError,
    DomainError,
    NumericalError,
    SpecError,
    SpikelabError,
)
from .free_additive import AdditiveContext
from .free_multiplicative import MultiplicativeContext
from .measure import AtomicMeasure, moment, quantile_discretize, stieltjes
from .verdicts import SpikeVerdict, SupportIntervals
from .verify import SpikeOutcome, VerificationResult

__version__ = "0.1.0"

__all__ = [
    "AdditiveContext",
    "AtomicMeasure",
    "DegenerateOutlierError",
    "DomainError",
    "EnsembleSample",
    "MultiplicativeContext",
    "NumericalError",
    "SpecError",
    "SpikeOutcome",
    "SpikeVerdict",
    "SpikedModelSpec",
    "SpikelabError",
    "SupportIntervals",
    "VerificationResult",
    "cli",
    "ensemble",
    "free_additive",
    "free_multiplicative",
    "measure",
    "moment",
    "quantile_discretize",
    "stieltjes",
    "verify",
    "__version__",
]
