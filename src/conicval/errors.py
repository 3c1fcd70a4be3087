"""Exception hierarchy.

Every mathematically meaningful failure raises a subclass of ConicvalError so
that the CLI can map it to exit code 1; malformed input (expressions, field or
valuation descriptors, and ExpressionOutOfRange: division by zero or a power
beyond ``parser.MAX_EXPONENT``) raises InputError subclasses, exit code 2.
A failed internal consistency check raises InvariantViolated, exit code 1;
these checks are ordinary code, not ``assert`` statements, so ``python -O``
keeps them.
"""


class ConicvalError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(ConicvalError, ZeroDivisionError):
    pass


class ContextMismatch(ConicvalError):
    """Operands belong to different field contexts."""


class ZeroInput(ConicvalError):
    pass


class ZeroPolynomial(ConicvalError):
    pass


class DegreeTooLarge(ConicvalError):
    """Full factorization over Q is limited to degree <= 8."""


class NegativeValue(ConicvalError):
    """Residue requested for an element outside the valuation ring."""


class NonzeroValue(ConicvalError):
    """Residue requested for an element of nonzero value."""


class ZeroElement(ConicvalError):
    pass


class UnsupportedPlace(ConicvalError):
    pass


class UnsupportedField(ConicvalError):
    pass


class InvalidPivot(ConicvalError):
    pass


class ConstantInput(ConicvalError):
    pass


class SquareInput(ConicvalError):
    pass


class NotUnitUnit(ConicvalError):
    """The residue algebra is only defined for unit/unit presentations."""


class PreconditionViolated(ConicvalError):
    pass


class InvariantViolated(ConicvalError):
    """An internal consistency check failed: a bug, never a user error."""


class WitnessNotFound(ConicvalError):
    """A bounded search failed to produce a witness that must exist.

    This is a diagnostic, never a wrong verdict: callers either re-raise or
    attach the failure note to their report.
    """


class PrecisionTooLow(ConicvalError):
    pass


class InputError(ConicvalError):
    """Malformed user input (CLI usage errors, exit code 2)."""


class ExpressionSyntaxError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UndeclaredVariable(InputError):
    def __init__(self, name: str, position: int = -1):
        super().__init__(f"undeclared variable '{name}'"
                         + (f" (offset {position})" if position >= 0 else ""))
        self.name = name
        self.position = position


class ExpressionOutOfRange(InputError):
    """A well-formed expression that cannot be evaluated: a division by zero,
    a power beyond ``parser.MAX_EXPONENT`` or an overlong integer literal."""
