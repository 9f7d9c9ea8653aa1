"""Exception hierarchy shared across the package.

Every error carries the CLI exit code it maps to: 1 for computation
failures, 2 for parse and validation failures, 3 is reserved for
verification checks that ran and failed (reported by the CLI itself,
not raised as an exception).
"""

from __future__ import annotations


class CelintError(Exception):
    """Base class for all package errors."""

    exit_code = 1


# arithmetic


class ZeroDenominator(CelintError):
    """A rational function was built with the zero polynomial below the bar."""


class DivisionByZero(CelintError):
    """Division by a zero value."""


class PoleError(CelintError):
    """Evaluation at a root of the denominator.

    Values are reduced, so the numerator does not vanish there too.
    """


# input handling


class ParseError(CelintError):
    """Malformed expression text."""

    exit_code = 2


class PresentationError(CelintError):
    """A ring or map presentation violates its structural axioms."""

    exit_code = 2


class SchemaError(CelintError):
    """A JSON input file is missing fields or has fields of the wrong shape."""

    exit_code = 2


# ring and model layer


class RingMismatch(CelintError):
    """Two classes from different rings were combined."""


class NotADivisor(CelintError):
    """A codimension-1 class was required."""


class UnsupportedCatalog(CelintError):
    """Unknown catalog ring kind."""

    exit_code = 2


class MissingTangentClass(CelintError):
    """The operation needs c(TV) but the ring does not carry one."""


class UniverseMismatch(CelintError):
    """A selection refers to component indices outside the configuration."""


class NormalCrossingViolation(CelintError):
    """A requested center or stratum is incompatible with the component set."""


# multiplicity regimes


class UndefinedMultiplicity(CelintError):
    """Some 1 + m_j is identically zero, so the integrand is undefined."""


class MissingDecomposition(CelintError):
    """Required divisor decomposition data (chi table, fiber table) is absent."""


class NotLogTerminal(CelintError):
    """A closed-form invariant was requested outside its convergence range."""


class PreconditionViolated(CelintError):
    """A theorem checker's hypotheses fail on the supplied instance."""


class RegimeWarning(UserWarning):
    """Constant multiplicities at or below -1: computation proceeds formally."""
