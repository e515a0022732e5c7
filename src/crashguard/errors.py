"""Exception types raised across the crashguard package."""


class CrashguardError(Exception):
    """Base class for all crashguard errors."""


class InvalidValue(CrashguardError, ValueError):
    """A number or label outside the range its parameter allows."""


# --- matrix / vector validation ---

class NotSquare(CrashguardError):
    pass


class NegativeEntry(CrashguardError):
    def __init__(self, row, col, value):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"negative entry {value!r} at ({row}, {col})")


class RowSumOutOfTolerance(CrashguardError):
    def __init__(self, row, total):
        self.row = row
        self.total = total
        super().__init__(f"row {row} sums to {total!r}, not 1")


class DimensionMismatch(CrashguardError):
    pass


# --- chain analysis ---

class NotRegular(CrashguardError):
    pass


class SingularSystem(CrashguardError):
    pass


class IllConditioned(CrashguardError):
    pass


class ZeroStationaryEntry(CrashguardError):
    pass


# --- trajectory ingestion / estimation ---

class IngestError(CrashguardError):
    """Raised while reading trajectory data; carries the 1-based file line."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(IngestError):
    pass


class DuplicateFrame(IngestError):
    def __init__(self, vehicle_id, frame):
        self.vehicle_id = vehicle_id
        self.frame = frame
        super().__init__(f"duplicate frame {frame} for vehicle {vehicle_id}")


class LaneOutOfRange(IngestError):
    pass


class SpeedOutOfRange(IngestError):
    pass


class TooShort(CrashguardError):
    pass


# --- sensing ---

class NonPositiveTime(CrashguardError):
    pass


class GeometryViolation(CrashguardError):
    pass


# --- simulation ---

class LeadBehindEgo(CrashguardError):
    pass


class SchemaError(CrashguardError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
