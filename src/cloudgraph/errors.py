"""Exception hierarchy for the cloudgraph pipeline, model, and I/O layers."""


class CloudGraphError(Exception):
    """Base class for all library-specific errors."""


class NonFiniteValue(CloudGraphError):
    """A radar point carries NaN or Inf in one of its fields; raised when a
    RadarFrame is built."""

    def __init__(self, point_index: int, field: str):
        self.point_index = point_index
        self.field = field
        super().__init__(f"non-finite value in point {point_index}, field '{field}'")


class NumericOverflow(CloudGraphError):
    """Finite input overflows a computed value: a non-finite feature,
    refused when a PointGraph is built, or a grid cell index beyond int64."""

    def __init__(self, sequence_id: int, frame_id: int, what: str):
        self.sequence_id = sequence_id
        self.frame_id = frame_id
        super().__init__(f"{what} in sequence {sequence_id} frame {frame_id}")


class EmptyInput(CloudGraphError):
    """An operation that requires at least one sample received none."""


class NonConsecutiveFrames(CloudGraphError):
    """Frame ids in a fusion window are not consecutive."""


class SequenceMismatch(CloudGraphError):
    """Frames in a fusion window belong to different sequences."""


class DimensionMismatch(CloudGraphError):
    """Tensor shapes do not chain through a network block."""


class EmptyGraph(CloudGraphError):
    """The model was asked to represent a graph with zero nodes."""


class MissingRecurrentParams(CloudGraphError):
    """Sequential prediction requested but no recurrent cell parameters present."""


class HeadShapeMismatch(CloudGraphError):
    """Prediction head output width does not match the requested head type."""


class NonFiniteOutput(CloudGraphError):
    """The forward pass or a metric produced a NaN or infinite value."""


class ManifestMismatch(CloudGraphError):
    """A weights file does not match the expected named-tensor manifest."""


class ShapeMismatch(CloudGraphError):
    """Prediction / ground-truth shapes disagree in a metric computation."""


class DegenerateConfiguration(CloudGraphError):
    """Ground-truth keypoints are collinear or coincident; alignment is underdetermined."""


class LabelOutOfRange(CloudGraphError):
    """Activity class index outside [0, C); ``row`` is the label's position
    in the batch."""

    def __init__(self, message: str, row: int = 0):
        self.row = row
        super().__init__(message)


class ConfigError(CloudGraphError):
    """Malformed or inconsistent configuration file."""


class ParseError(CloudGraphError):
    """Malformed line in a text input file, read ``{path}: line N: message``
    when the file is known."""

    def __init__(self, line_number: int, message: str, path=None):
        self.line_number = line_number
        self.path = path
        where = f"line {line_number}" if path is None else f"{path}: line {line_number}"
        super().__init__(f"{where}: {message}")


class FormatVersionError(CloudGraphError):
    """A binary record or a manifest carries an unsupported format version."""


class IdMismatch(CloudGraphError):
    """Predictions and ground truth could not be joined by (sequence, frame) ids."""
