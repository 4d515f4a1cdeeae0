"""Exception types shared across the package."""


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
