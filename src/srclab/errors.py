"""Exception types shared across the package."""


class SrclabError(Exception):
    """Base class for all srclab errors."""


class DomainError(SrclabError):
    """Expression evaluated outside its mathematical domain."""


class DimensionMismatch(SrclabError):
    """Operands disagree in ambient dimension."""


class SingularFrame(SrclabError):
    """Frame matrix not invertible at the evaluation point."""


class MetricNotSPD(SrclabError):
    """Gram matrix not symmetric positive definite at the evaluation point."""


class RankTooSmall(SrclabError):
    """Operation undefined for this horizontal rank (divides by ell-2 or ell-1)."""


class UnknownEntry(SrclabError):
    """No builtin catalog entry with the requested name."""


class ParseError(SrclabError):
    """Source text does not conform to the manifold grammar."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ValidationError(SrclabError):
    """Structurally well-formed input violating a manifold invariant."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.message = message
        self.line = line
