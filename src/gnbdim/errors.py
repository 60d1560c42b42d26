"""Exception hierarchy shared across the dimensioning toolkit: 7 classes.

A class exists only where a caller tells it apart from its parent; every
other failure raises :class:`GnbdimError` with a message that says what
went wrong. The CLI maps :class:`InfeasibleError` (the model has no
solution for valid inputs) to exit code 3 and prints its class name, so
its three subclasses stay; the pipeline catches :class:`ZeroTrafficError`
to report an undefined cost; any other :class:`GnbdimError`,
:class:`ConfigError` included, means bad input or configuration (exit
code 2): an unreadable input file or an unwritable output among them.
"""


class GnbdimError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(GnbdimError):
    """Invalid configuration file or CLI arguments."""


class InfeasibleError(GnbdimError):
    """The dimensioning model has no solution for these inputs."""


class NegativeMaplError(InfeasibleError):
    """Gains minus losses and margins leave no path-loss budget."""


class ZeroSubscribersError(InfeasibleError):
    """A single subscriber's demand exceeds the usable cell capacity."""


class LoadTooHighError(InfeasibleError):
    """Cell load at or beyond the interference-margin pole."""


class ZeroTrafficError(GnbdimError):
    """No traffic carried, cost per bit is undefined."""
