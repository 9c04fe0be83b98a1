"""Exception taxonomy shared across the package."""


class IsturmError(Exception):
    """Base class for all package errors."""


class BothZero(IsturmError):
    """Both polynomials of a boundary pair are identically zero."""


class NotCoprime(IsturmError):
    """Boundary polynomials share a nonconstant common factor."""


class NonFiniteState(IsturmError):
    """Integration state overflowed; |lambda| too large for the step size."""


class CountMismatch(IsturmError):
    """Root count in a search window disagrees with the asymptotic numbering."""


class NoConvergence(IsturmError):
    """Iterative refinement failed to converge."""


class PoleTooClose(IsturmError):
    """Residue circle would enclose a second distinct pole."""


class AtPole(IsturmError):
    """Evaluation point coincides with a pole."""


class DenominatorZero(IsturmError):
    """Moebius reduction denominator vanishes at the evaluation point."""


class AmbiguousOffset(IsturmError):
    """Asymptotic index offset is too far from both integer and half-integer."""


class MalformedInput(IsturmError, ValueError):
    """Input data breaks its schema or cannot be truncated as asked."""


class OrderTooHigh(MalformedInput):
    """Requested derivative order or model degree exceeds the multiplicity cap."""


class Singular(IsturmError):
    """Truncated main-equation matrix is numerically singular."""


class FitResidualTooLarge(IsturmError):
    """Polynomial fit of a reconstruction expression did not collapse."""


class FitUnstable(IsturmError):
    """Asymptotic extrapolation produced an unstable fit."""


class UnsupportedCase(IsturmError):
    """Reconstruction requested for the deg(r1) < deg(r2) branch."""
