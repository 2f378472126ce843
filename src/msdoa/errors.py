"""Exception types shared across the package, and the one near-singularity check."""


class MsdoaError(Exception):
    """Base class for all library errors."""


class ValidationError(MsdoaError, ValueError):
    """An input value violates a documented precondition."""


class ConfigurationError(ValidationError):
    """A parameter combination is internally inconsistent."""


class DegenerateCodingError(ConfigurationError):
    """The harmonic mixing matrix is numerically rank deficient, whatever the draw."""


class NearSingularWhitenerError(MsdoaError):
    """The smoothing whitener cannot be factorized reliably."""


class UnidentifiableParameterError(MsdoaError):
    """Fisher information for the requested angles is singular for one amplitude draw."""


def refuse_degenerate(low, high, rtol: float, error: type, what: str) -> None:
    """Raise ``error`` at the first (low, high) pair of a stack where ``low > rtol * high``
    fails, as a NaN does; the message is ``what`` and that pair."""
    for lo, hi in zip(low.flat, high.flat):
        if not lo > rtol * hi:
            raise error(f"{what} {lo:.3e} .. {hi:.3e} (relative floor {rtol:.0e})")
