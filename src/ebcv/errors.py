"""Exception and warning types shared by all ebcv modules."""


class EbcvError(Exception):
    """Base class for all ebcv errors."""


class DomainViolation(EbcvError):
    """A point (or parameter pair) left the chart where K > 0."""


class InconclusiveClassification(EbcvError):
    """Witness data contradicts the structure invariants.  ``point`` is
    the point that shows it, or None."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ModeMismatch(EbcvError):
    """A geodesic mode was requested with incompatible parameters."""


class TooFewSamples(EbcvError):
    """A trajectory has too few samples for the requested analysis."""


class MalformedFieldInput(EbcvError):
    """A polynomial vector-field file could not be parsed."""


class InsufficientSamples(Warning):
    """Advisory: the sample set cannot certify the full basis rank."""
