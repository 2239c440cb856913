"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
data/schema problems exit 3, numerical failures and violated
invariants exit 4.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class SchemaError(ValueError):
    """Input file does not conform to the expected schema."""


class EstimationError(ValueError):
    """Not enough data to form the requested estimate."""


class FitError(RuntimeError):
    """A fit failed to converge or the problem is rank-deficient."""


class InvariantError(RuntimeError):
    """A computed quantity violates a physics identity (e.g. Schur trace bound)
    or is not finite."""


class CalibrationError(FitError):
    """Coupling-constant calibration failed (degenerate input)."""
