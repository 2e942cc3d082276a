"""Exception types and warnings shared across the package."""


class BnSensError(Exception):
    """Base class for every deliberate error raised by this package."""


# ---------------------------------------------------------------- model

class ValidationError(BnSensError):
    """A network or analysis spec violates a structural invariant."""


class CyclicGraphError(ValidationError):
    """The parent relation contains a directed cycle."""


class UnnormalizedCptError(ValidationError):
    """A CPT row fails to sum to one, or an entry leaves [0, 1]."""


class ShapeMismatchError(ValidationError):
    """A CPT table size is inconsistent with the declared domains."""


class PartitionError(ValidationError):
    """The output/evidential/chance split is ill-formed."""


class OverlappingPartitionError(PartitionError):
    """The output node also appears in the evidential set."""


class EmptyEvidenceSetError(PartitionError):
    """The evidential set is empty."""


class MissingValueMapError(PartitionError):
    """The value map does not give every label of the output domain a
    finite value."""


class InvalidAssignmentError(BnSensError):
    """An assignment names unknown variables or out-of-range values."""


# ---------------------------------------------------------------- ingest

class BifSyntaxError(BnSensError):
    """Malformed BIF input; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnsupportedFeatureError(BnSensError):
    """The input uses a construct outside the supported discrete subset."""


class SchemaError(BnSensError):
    """A native document is structurally invalid; names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# --------------------------------------------------- tensors and networks

class AxisCardinalityMismatchError(BnSensError):
    """Two factors disagree on the cardinality of a shared axis."""


class UnknownAxisError(BnSensError):
    """An operation names an axis the factor or network does not carry."""


# --------------------------------------------------- sensitivity analysis

class DegenerateOutputError(BnSensError):
    """The output variance is numerically zero; indices are undefined."""


class NotEvidentialError(BnSensError):
    """An index was requested for a variable outside the evidential set."""


class StateSpaceTooLargeError(BnSensError):
    """The joint state space exceeds the enumeration cap."""


class DependentInputsError(BnSensError):
    """The sampling estimator requires independent (root) evidential nodes."""


class PartialFunctionError(BnSensError):
    """A utility function is undefined for some parent configuration."""


class ContractionUnderflowWarning(RuntimeWarning):
    """A contraction returned a subnormal value although all inputs were
    normal floats; the result has lost most of its precision."""
