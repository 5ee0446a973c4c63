"""Shared exception types."""


class ParseError(ValueError):
    """Job text that does not follow the input grammar."""

    def __init__(self, message, line=0, col=0):
        if line:
            super().__init__(f"line {line}, col {col}: {message}")
        else:
            super().__init__(message)
        self.line = line
        self.col = col


class FieldArgumentError(ValueError):
    """A `build_field` refusal; ``arg`` names the argument refused."""

    def __init__(self, arg, message):
        super().__init__(message)
        self.arg = arg


class InvalidDescriptorError(ValueError):
    """Extension data that violates a descriptor invariant."""


class InternalCheckError(RuntimeError):
    """A cross-check that must hold for every report has failed."""
