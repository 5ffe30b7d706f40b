"""Typed failure modes shared across the package."""

from contextlib import contextmanager
from typing import Iterator


class QCascadeError(Exception):
    """Base class for all package errors."""


class NotHurwitz(QCascadeError):
    """A matrix required to be Hurwitz has an eigenvalue with nonnegative real part."""


class SolverSingular(QCascadeError):
    """The vectorized linear system of a matrix equation is numerically singular."""


class EigFailure(QCascadeError):
    """An eigensolver failed to converge."""


class DimensionMismatch(QCascadeError):
    """Matrix dimensions are inconsistent with the model."""


class SingularTheta(QCascadeError):
    """A commutation matrix is singular and cannot define a valid mode."""


class SingularResolvent(QCascadeError):
    """Transfer-function evaluation at a point of the spectrum."""


class NonPositive(QCascadeError):
    """A matrix required to be positive (semi)definite fails the check."""


class SingularLeadingBlock(QCascadeError):
    """A leading principal block is numerically singular in a Schur-complement step."""


class TooManyRejections(QCascadeError):
    """Too large a fraction of Monte-Carlo samples lost stability."""


class NoConvergence(QCascadeError):
    """An iterative solver exhausted its iteration budget."""


class RankDeficientMu(QCascadeError):
    """The coupling gradient has deficient column rank; the balancing problem is degenerate."""


class NotOneMode(QCascadeError):
    """Closed-form balancing requires one-mode (order 2) oscillators."""


class ZAtOne(QCascadeError):
    """The shifted state-space family is undefined at z = 1."""


class NotInStabilitySet(QCascadeError):
    """A complex parameter lies outside the admissible stability region."""


class BisectionFailure(QCascadeError):
    """Norm iteration could not close the gain bracket."""


class ParseError(QCascadeError):
    """Input file is not syntactically valid."""


class SchemaError(QCascadeError):
    """Input file parses but violates the model schema."""


@contextmanager
def _prefixed(text: str) -> Iterator[None]:
    """Re-raise a QCascadeError or ArithmeticError as its type, prefixed by ``text: ``."""
    try:
        yield
    except (QCascadeError, ArithmeticError) as exc:
        raise type(exc)(f"{text}: {exc}") from exc
