"""Exception types shared across the package."""


class FlowSplatError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(FlowSplatError):
    """Invalid configuration value (a scene spec, intrinsics or similar setting)."""


class DataError(FlowSplatError):
    """Malformed or missing input data (dataset files, tensor files)."""


class NumericalError(FlowSplatError):
    """Non-finite values encountered during optimization or rendering."""


class SolverFailure(FlowSplatError):
    """Linear system could not be solved even at maximum damping."""


class CalibrationDegenerateError(FlowSplatError):
    """Self-calibration attempted on a degenerate (e.g. rotation-only) sequence."""
