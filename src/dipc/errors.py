"""Exception types shared across the package."""


class ConstructionError(RuntimeError):
    """Raised when a codebook or code could not be built under the given limits."""


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
