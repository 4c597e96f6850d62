"""Exception types shared across the package."""


class VinbergError(Exception):
    """Base class for all package errors."""


class DiagramError(VinbergError):
    """A wall pair produced an angle value outside the supported set."""


class ConsistencyError(VinbergError):
    """Two independent computations of the same fact disagreed.

    This always indicates an internal bug, never bad user input, so it is
    raised rather than reported.
    """


class CertificateError(VinbergError):
    """A certificate document is structurally malformed."""
