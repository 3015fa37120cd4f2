"""spikelab: spiked random-matrix analytics and Monte Carlo verification.

For additively deformed Wigner and multiplicatively spiked sample-covariance
models: which spikes generate outlier eigenvalues, where those outliers land,
the limiting squared overlap of their eigenvectors with the spike eigenspace,
and the support and density of the limiting spectral law (free_additive,
free_multiplicative, on atomic measures from measure), each checked against
seeded finite-N simulations (ensemble, verify); cli, the command line, writes every report.
"""

from . import cli, ensemble, free_additive, free_multiplicative, measure, verify
from .ensemble import EnsembleSample, SpikedModelSpec
from .errors import DomainError, NumericalError, SpecError, SpikelabError
from .free_additive import AdditiveContext
from .free_multiplicative import MultiplicativeContext
from .measure import AtomicMeasure, quantile_discretize
from .verdicts import SpikeVerdict, SupportIntervals
from .verify import SpikeOutcome, VerificationResult

__version__ = "0.15.0"

__all__ = [
    "AdditiveContext",
    "AtomicMeasure",
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
    "quantile_discretize",
    "verify",
    "__version__",
]
