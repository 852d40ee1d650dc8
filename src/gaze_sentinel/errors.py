"""Exception types shared across the toolkit."""


class GazeSentinelError(Exception):
    """Base class for all toolkit-specific errors."""


class MalformedStreamError(GazeSentinelError):
    """Gaze sample stream violates its ordering or shape contract."""


class MalformedTimelineError(GazeSentinelError):
    """Robot-action timeline is inconsistent with the declared scenario."""


class InvalidSliceError(GazeSentinelError):
    """A feature slice has non-positive duration."""


class InvalidParameterError(GazeSentinelError):
    """A numeric argument is outside its documented domain."""


class InsufficientMinorityError(GazeSentinelError):
    """Too few minority rows to run k-neighbour oversampling."""


class DegenerateDataError(GazeSentinelError):
    """Training data does not contain both classes."""


class FeatureArityError(GazeSentinelError):
    """Input vector length does not match the model's feature count."""


class ModelFormatError(GazeSentinelError):
    """Persisted model file is corrupt or structurally invalid, or a model's
    trees are wider than the tree walk packs."""


class SchemaVersionError(ModelFormatError):
    """Persisted file was written under an incompatible schema version."""
