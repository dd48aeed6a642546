"""Exception hierarchy shared by all tsring modules."""


class TsringError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(TsringError):
    """A value that must be prime is not."""


class BadOrder(TsringError):
    """Requested subgroup order does not divide p - 1."""


class TwoBlocked(TsringError):
    """p = 2 admits no nontrivial odd-order automorphism subgroup."""


class BadLevel(TsringError):
    """Subgroup level outside the valid range."""


class ParamsMismatch(TsringError):
    """Operands belong to models with different parameters."""


class ScalarMismatch(TsringError):
    """Operands have coefficients in different scalar rings."""


class NotInvertible(TsringError):
    """Element or matrix is not invertible over the requested ring."""


class ShapeMismatch(TsringError):
    """Matrix shapes are incompatible with the requested operation."""


class CharacterIllDefined(TsringError):
    """Two connecting elements assign different character values."""


class UnrecognizedShape(TsringError):
    """A subgroup met during oracle evaluation fits none of the known shapes."""


class CharIsP(TsringError):
    """Coefficient field has the blocked characteristic p."""


class ArithmeticBound(TsringError):
    """A fixed-width integer computation could exceed its range."""


class ScanTooLarge(TsringError):
    """The integral central idempotents would exceed the configured bound."""


class TheoremViolation(TsringError):
    """A mechanically checked identity failed; carries both sides."""


class TransportFailed(TsringError):
    """A one-sided twist is no basis permutation, or moves a product wrongly."""
