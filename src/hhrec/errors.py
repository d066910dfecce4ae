"""Exception hierarchy.

``DegenerateInputError`` roots the family of errors that a verification
campaign treats as "this seed hit a degeneracy, resample" rather than a bug:
they all arise from special numeric data (a vanishing pivot, a vanishing
Wronskian determinant, ...) on which an operation's defining expression has a
pole.  Everything else is a hard error.
"""

from __future__ import annotations


class HHRecError(Exception):
    """Base class for all package-specific errors."""


class NotExactError(HHRecError):
    """Laurent-polynomial division left a remainder (no quotient in the ring)."""


class ZeroAtNegativeExponentError(HHRecError):
    """Substitution assigned 0 to a variable that occurs with a negative exponent."""

    def __init__(self, var: str):
        super().__init__(f"variable {var} occurs with a negative exponent but is assigned 0")
        self.var = var


class LaurentViolationError(HHRecError):
    """Symbolic iteration required a non-exact division.

    This would falsify the Laurent property of the recurrence, so it aborts
    loudly with the offending index instead of degrading to rational functions.
    """

    def __init__(self, n: int):
        super().__init__(f"symbolic iterate x_{n} is not a Laurent polynomial in the initial data")
        self.n = n


class CertificateError(HHRecError):
    """The certificate for the linear route of the generic seed failed.

    Either piece failing would disprove the linear relation for the general
    solution, so it is a check failure and never a degeneracy to resample.
    ``identity`` names the failed piece, ``n`` its index and ``residual`` the
    nonzero value it left.
    """

    def __init__(self, identity: str, n: int, residual):
        super().__init__(f"linear-route certificate failed: {identity} at n={n}")
        self.identity = identity
        self.n = n
        self.residual = residual


class ResidueMismatchError(HHRecError):
    """A value of a Decimal-route window differs, modulo ``modulus`` (2^61 - 1
    or the odd number below it that the check chose), from the linear
    relation run over residues from the same integers.

    The Decimal route or its arithmetic went wrong at x_n, so the window must
    not be printed: a check failure, never a degeneracy.
    """

    def __init__(self, n: int, modulus: int):
        super().__init__(f"x_{n} of the decimal route differs from the linear relation "
                         f"modulo {modulus}")
        self.n, self.modulus = n, modulus


class NonIntegerValueError(HHRecError):
    """b-file export requires every value to be an integer."""


class InsufficientDataError(HHRecError):
    """Too few sequence terms to certify a recurrence of the requested order."""


class DegenerateInputError(HHRecError):
    """Specific numeric data hit a pole of the operation; resample and retry."""


class ZeroPivotError(DegenerateInputError):
    """A division by a zero iterate or seed value: the nonlinear step's or a formula's."""

    def __init__(self, n: int, what: str = "iterate"):
        super().__init__(f"zero {what} x_{n} used as a divisor")
        self.n = n


class DegenerateDenominatorError(DegenerateInputError):
    """The conserved-quantity ratio has denominator x_{base+2k} - x_base = 0."""


class SingularDeltaError(DegenerateInputError):
    """The 3x3 discrete Wronskian determinant vanished at this index."""

    def __init__(self, n: int):
        super().__init__(f"discrete Wronskian determinant is 0 at n={n}")
        self.n = n


class ZeroAlphaError(DegenerateInputError):
    """A companion-matrix inverse needs alpha_n != 0."""


class SingularSystemError(DegenerateInputError):
    """The 3x3 solve for the order-2 inhomogeneous relation is singular."""


class DegenerateTError(DegenerateInputError):
    """Closed-form extraction needs t = (K-1)/2 outside {0, 1}."""
