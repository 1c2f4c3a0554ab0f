"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised for malformed config files, unknown keys, or invalid values."""


class FormatError(ValueError):
    """Raised for malformed binary inputs (IDX files, FTHR checkpoints).

    Messages include the byte offset at which parsing failed, or name the
    checkpoint record whose contents are not what the format requires.
    """


class NonFiniteError(ValueError):
    """Raised when a numeric operation would store NaN or Inf values."""


class TrainingDivergedError(RuntimeError):
    """Raised when training produces a non-finite loss.

    Carries epoch, batch index, and per-layer weight norms for diagnosis.
    """

    def __init__(self, epoch: int, batch: int, layer_norms: dict[str, float]):
        self.epoch = epoch
        self.batch = batch
        self.layer_norms = dict(layer_norms)
        norms = ", ".join(f"{k}={v:.4g}" for k, v in self.layer_norms.items())
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch}; layer norms: {norms}"
        )
