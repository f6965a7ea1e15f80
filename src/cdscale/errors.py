"""Exception types for numerically meaningful failure modes."""


class InvalidCoefficient(ValueError):
    """An off-diagonal Jacobi coefficient a_j <= 0, or a non-finite entry."""


class IndexOutOfRange(IndexError):
    """A coefficient index beyond the extent of a table-backed model."""


class DetNotOne(ArithmeticError):
    """A matrix that must be unimodular has determinant away from 1."""


class CoincidentArguments(ValueError):
    """A divided-difference kernel form was evaluated at (numerically) equal points."""


class NotPSD(ValueError):
    """A Hamiltonian value has a significantly negative eigenvalue."""


class WronskianViolation(ValueError):
    """A pair (p_ell(x0), q_ell(x0)) violates the discrete Wronskian identity."""


class ConditioningWarning(RuntimeWarning):
    """Accumulated transfer-matrix norms make a direct product unreliable."""
