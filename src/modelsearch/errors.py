"""Exception types shared across the package."""


class ModelSearchError(Exception):
    """Base class for every error raised by this package."""


# --- search space ---------------------------------------------------------


class LengthMismatch(ModelSearchError):
    """An action sequence has the wrong number of entries for the space."""


class IndexOutOfRange(ModelSearchError):
    def __init__(self, param: str, index: int):
        super().__init__(f"index {index} out of range for parameter {param!r}")
        self.param = param
        self.index = index


class UnknownChoice(ModelSearchError):
    def __init__(self, param: str, value):
        super().__init__(f"{value!r} is not a choice of parameter {param!r}")
        self.param = param
        self.value = value


# --- numeric kernel -------------------------------------------------------


class ShapeMismatch(ModelSearchError):
    """Array arguments do not have the shapes the operation requires."""


class NonFiniteGradient(ModelSearchError):
    """A gradient contained NaN or infinity."""


# --- controller / trainer -------------------------------------------------


class UnknownTask(ModelSearchError):
    def __init__(self, task_id):
        super().__init__(f"task {task_id!r} is not registered")
        self.task_id = task_id


class BaselineUninitialized(ModelSearchError):
    """No reward has been recorded yet for the task."""


class EmptyBank(ModelSearchError):
    """Cannot sample from an empty replay bank."""


# --- evaluators -----------------------------------------------------------


class OutOfRange(ModelSearchError):
    """A numeric argument fell outside its documented range."""


class UnknownConfig(ModelSearchError):
    """The configuration does not belong to the evaluator's search space."""


class NotBruteForceable(ModelSearchError):
    """The evaluator does not support exhaustive optimum lookup."""


class InvalidConfig(ModelSearchError):
    """A model configuration cannot be realized as a child network."""


# --- checkpointing --------------------------------------------------------


class IoFailure(ModelSearchError):
    """Checkpoint file could not be read or written."""


class VersionMismatch(ModelSearchError):
    """Checkpoint was written by an unsupported format version."""


class FingerprintMismatch(ModelSearchError):
    """Checkpoint belongs to a different search space."""


class DegenerateEmbedding(ModelSearchError):
    """A task embedding has zero variance; correlation is undefined."""


# --- harness --------------------------------------------------------------


class BadWindow(ModelSearchError):
    """Invalid Savitzky-Golay window/order combination."""


class MissingLog(ModelSearchError):
    """A run directory's event log is missing or malformed."""


class ConfigError(ModelSearchError):
    """Experiment configuration is malformed; message names the field."""
