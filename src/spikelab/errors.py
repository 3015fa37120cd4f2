"""Exception taxonomy shared by all spikelab modules."""


class SpikelabError(Exception):
    """Base class for every error raised by spikelab."""


class SpecError(SpikelabError):
    """A model spec, measure, or config violates a documented invariant."""


class DomainError(SpikelabError):
    """An evaluation point sits outside a function's domain (atom, pole, wrong half-plane)."""


class NumericalError(SpikelabError):
    """A numeric routine produced output that fails its accuracy contract."""


class DegenerateOutlierError(SpikelabError):
    """An outlier spike maps to the excluded degenerate location Z(1/theta)=0."""
