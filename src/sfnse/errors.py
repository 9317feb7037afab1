"""Exception types shared across the solver modules.

One class per way a caller reacts; ``cli.main`` maps each to one exit code.
A config line that does not parse, an unknown key among them, is a
``ParseError``; a parsed value that is refused is a ``ValidationError``.
"""


class DomainError(ValueError):
    """An argument lies outside its admissible range, shape or size."""


class NonConvergence(RuntimeError):
    """The implicit solver did not reach its tolerance within the iteration cap.

    Carries the number of fixed-point evaluations, the last certified
    residual, and (when raised from a trajectory driver) the failing step.
    """

    def __init__(self, message: str, iterations: int, residual: float, step: int | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.step = step


class ParseError(ValueError):
    """A config file line that does not parse (bad literal, unknown or repeated key); 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ValidationError(ValueError):
    """A config value is refused; ``key`` names its config key or override source."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


class IoError(RuntimeError):
    """File I/O failure with the offending path attached."""

    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
