"""Exception hierarchy shared across the dimensioning toolkit.

Errors fall into two operational classes: :class:`ConfigError` and friends
mean the inputs were bad (CLI exit code 2), :class:`InfeasibleError`
subclasses mean the model itself has no solution for valid inputs
(CLI exit code 3).
"""


class GnbdimError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(GnbdimError):
    """Invalid configuration file or CLI arguments."""


class InfeasibleError(GnbdimError):
    """The dimensioning model has no solution for these inputs."""


# --- identifiers ---------------------------------------------------------

class NonDigitError(GnbdimError, ValueError):
    """Identifier text contains a non-decimal character."""


class BadLengthError(GnbdimError, ValueError):
    """Identifier text has the wrong number of characters."""


# --- ingest ---------------------------------------------------------------

class MissingHeaderError(GnbdimError):
    """The CSV input has no recognizable header row (fatal)."""


class BadBboxError(GnbdimError, ValueError):
    """Bounding box has min > max on some axis."""


# --- density --------------------------------------------------------------

class WindowTooLargeError(GnbdimError, ValueError):
    """Requested search window exceeds the grid extent."""


class NonPositiveScaleError(GnbdimError, ValueError):
    """Subscriber scale factor must be positive."""


# --- NR model -------------------------------------------------------------

class BadMuError(GnbdimError, ValueError):
    """Numerology index outside [0, 4]."""


class UnsupportedBandwidthError(GnbdimError, ValueError):
    """Channel bandwidth not in the allowed set for the frequency range."""


class NoPrbFitsError(GnbdimError, ValueError):
    """Not even one PRB fits into the usable bandwidth."""


# --- coverage -------------------------------------------------------------

class NonPositiveBandwidthError(GnbdimError, ValueError):
    """Noise bandwidth must be positive."""


class NonPositiveDistanceError(GnbdimError, ValueError):
    """Path-loss distance (or frequency) must be positive."""


class NegativeMaplError(InfeasibleError):
    """Gains minus losses and margins leave no path-loss budget."""


class OutOfBracketError(GnbdimError):
    """Target path loss not reachable inside the inversion bracket."""


# --- capacity / balance ---------------------------------------------------

class ZeroSubscribersError(InfeasibleError):
    """A single subscriber's demand exceeds the usable cell capacity."""


class LoadTooHighError(InfeasibleError):
    """Cell load at or beyond the interference-margin pole."""


# --- economics ------------------------------------------------------------

class ZeroTrafficError(GnbdimError):
    """No traffic carried, cost per bit is undefined."""


class UndefinedCostError(GnbdimError, ValueError):
    """Comparison requested between reports without a defined cost per bit."""
