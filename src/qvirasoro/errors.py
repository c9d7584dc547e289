"""Exception types shared across the package."""


class QVirasoroError(Exception):
    """Base class for all package-specific errors."""


class RegimeError(QVirasoroError):
    """Parameters violate the regime a routine was derived for.

    Raised e.g. when a series product form is evaluated outside its
    region of convergence, or when strict deformation parameters are
    required but not supplied.
    """


class PoleError(QVirasoroError):
    """Evaluation requested exactly at (or numerically on top of) a pole."""


class ConvergenceError(QVirasoroError):
    """An infinite sum or product failed to converge."""


class ConfigError(QVirasoroError):
    """Invalid run configuration (bad parameter regime, unknown suite,
    malformed config file).  The CLI maps this to exit status 3."""
