"""Exception types shared across the package, and the integer check of
every spec and config."""

import operator


class HdlpError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(HdlpError, ValueError):
    pass


class NonFinite(HdlpError, ValueError):
    pass


class AllColumnsDegenerate(HdlpError, ValueError):
    pass


class DegenerateShock(HdlpError, ValueError):
    """The shock variable has no identifying variation left after projection."""


class BandwidthTooLarge(HdlpError, ValueError):
    pass


class InsufficientSample(HdlpError, ValueError):
    pass


class UnknownColumn(HdlpError, KeyError):
    pass


class NonAbsorbingTreatment(HdlpError, ValueError):
    pass


class NoTreatedUnits(HdlpError, ValueError):
    pass


class NoCleanControls(HdlpError, ValueError):
    pass


class NonStationarySpec(HdlpError, ValueError):
    pass


class NonStationaryAfterDamping(HdlpError, ValueError):
    pass


class ConfigError(HdlpError, ValueError):
    """Invalid or malformed run configuration (CLI exit code 2)."""


class DataError(HdlpError, ValueError):
    """Invalid or malformed input data (CLI exit code 3)."""


def _count(value, what: str, least: int = 0) -> int:
    """value as an int of at least least, numpy integers included; a
    ValueError names it when it is smaller or no integer (a float, a string)."""
    try:
        count = operator.index(value)
    except TypeError:
        count = least - 1
    if count < least:
        bound = f"at least {least} and an integer" if least else "a nonnegative integer"
        raise ValueError(f"{what} must be {bound}, got {value!r}")
    return count
