"""Exception types raised by cascadekit.

Every validation failure maps to a dedicated class so callers (and tests)
can catch the precise condition instead of matching message strings.
"""


class CascadeKitError(ValueError):
    """Base class for all cascadekit errors."""


class BadArgumentError(CascadeKitError):
    """A function argument is outside the values it accepts (k < 1, folds < 2,
    a negative lambda, ...)."""


# --- cascade construction -------------------------------------------------

class InvalidCascadeError(CascadeKitError):
    """build_cascade rejected an event log.

    ``index`` is the position, in the input sequence, of the event the
    message names (0 when it names none), so a caller that knows where each
    input event came from can point at it.
    """

    def __init__(self, message: str, index: int = 0) -> None:
        super().__init__(message)
        self.index = index


class NoRootError(InvalidCascadeError):
    """No event without a parent_id was found."""


class MultipleRootsError(InvalidCascadeError):
    """More than one event without a parent_id was found."""


class MixedCascadeIdError(InvalidCascadeError):
    """The events do not all carry the same cascade_id."""


class DuplicateNodeError(InvalidCascadeError):
    """Two events carry the same node_id."""


class DanglingParentError(InvalidCascadeError):
    """A parent_id does not reference any event in the cascade."""


class CycleDetectedError(InvalidCascadeError):
    """Parent pointers form a cycle (or disconnect nodes from the root)."""


class NegativeTimestampError(InvalidCascadeError):
    """An event would have a negative timestamp after re-basing to the root."""


class TimestampOverflowError(InvalidCascadeError):
    """An event's timestamp minus the root's overflows to infinity."""


class KTooLargeError(CascadeKitError):
    """Requested prefix length k exceeds the number of reshares."""


# --- virality ---------------------------------------------------------------

class TooSmallError(CascadeKitError):
    """Tree has fewer than two nodes; average pairwise distance is undefined."""


# --- stats ------------------------------------------------------------------

class AlphaOutOfRangeError(CascadeKitError):
    """Power-law exponent must be > 1."""


class InsufficientSamplesError(CascadeKitError):
    """Too few samples at or above the tail cutoff."""


class DegenerateSamplesError(CascadeKitError):
    """All retained samples equal the cutoff; the log-sum is zero."""


class EmptyInputError(CascadeKitError):
    """An operation received an empty sequence."""


class ZeroSumError(CascadeKitError):
    """Values sum to zero; the statistic is undefined."""


class LengthMismatchError(CascadeKitError):
    """Paired sequences have different lengths."""


class ZeroVarianceError(CascadeKitError):
    """A sequence has zero variance where nonzero variance is required."""


class SampleTooSmallError(CascadeKitError):
    """Sample size below the minimum the statistic requires."""


class DegenerateCorrelationError(CascadeKitError):
    """|r| = 1 cannot be Fisher-transformed."""


# --- features ---------------------------------------------------------------

class TimeNotNormalizedError(CascadeKitError):
    """Tree root timestamp is not zero."""


# --- tasks ------------------------------------------------------------------

class EmptyDatasetError(CascadeKitError):
    """No cascades satisfy the task's retention rule."""


class KExceedsRError(CascadeKitError):
    """Observation window k exceeds the minimum final size R."""


class NoQualifyingClustersError(CascadeKitError):
    """No cluster has enough usable members."""


class UnknownFieldError(CascadeKitError):
    """The grouping field is present on no cascade."""


# --- learner ----------------------------------------------------------------

class SingleClassError(CascadeKitError):
    """Labels contain only one class."""


class NonFiniteInputError(CascadeKitError):
    """Design matrix contains NaN or infinite entries."""


class MissingFeatureError(CascadeKitError):
    """An input vector lacks a feature the model requires."""


class TooFewExamplesError(CascadeKitError):
    """Not enough examples to populate the requested folds."""


# --- synth / cli ------------------------------------------------------------

class BadParamsError(CascadeKitError):
    """Generator parameters out of range.

    ``fields`` names the parameters at fault, the one to blame first.
    """

    def __init__(self, message: str, *fields: str) -> None:
        super().__init__(message)
        self.fields = fields


class ConfigInvalidError(CascadeKitError):
    """A config file is malformed or references missing inputs."""
