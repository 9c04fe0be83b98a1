"""Boundary-value-problem data: polynomials in the spectral parameter, the
antiderivative representation of the potential, and the normalized problem
objects.

Polynomials are stored with ascending complex coefficients (coeffs[n] is the
coefficient of lambda**n).  The potential q is carried through its
antiderivative sigma (q = sigma' in the distributional sense), so a Dirac
interaction h*delta(x-a) is simply a step of height h at a.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import cplx, from_pair
from .errors import BothZero, MalformedInput, NotCoprime

ZERO_RTOL = 1e-10  # deflation threshold relative to the largest coefficient


def _trim(coeffs, rtol=ZERO_RTOL):
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0:
        return np.zeros(1, dtype=complex)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    k = c.size - 1
    while k > 0 and abs(c[k]) <= rtol * scale:
        k -= 1
    return c[: k + 1].copy()


@dataclass(frozen=True)
class Polynomial:
    """Complex polynomial in the spectral parameter, ascending coefficients."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in _trim(coeffs)))

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def degree(self) -> int:
        """Degree of the trimmed polynomial; 0 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, lam):
        return poly_eval(self, lam)

    def scaled(self, factor: complex) -> "Polynomial":
        return Polynomial([factor * c for c in self.coeffs])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        """Coefficientwise sum, the shorter polynomial padded with zeros."""
        c = np.zeros(max(len(self.coeffs), len(other.coeffs)), dtype=complex)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] += other.coeffs
        return Polynomial(c)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + Polynomial(-other.as_array())

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    def to_json(self):
        return [cplx(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "Polynomial":
        return cls([from_pair(v) for v in data])


def poly_eval(p: Polynomial, lam):
    """Horner evaluation; lam may be scalar or array."""
    lam = np.asarray(lam, dtype=complex)
    acc = np.full(lam.shape, p.coeffs[-1], dtype=complex)
    for c in p.coeffs[-2::-1]:
        acc = acc * lam + c
    return acc if acc.shape else complex(acc)


def poly_gcd_degree(p: Polynomial, q: Polynomial, rtol: float = ZERO_RTOL) -> int:
    """Degree of the monic gcd, Euclidean algorithm with deflation; every
    threshold is relative, so a common factor of p and q changes nothing."""
    a, b = p.as_array(), q.as_array()
    if p.is_zero and q.is_zero:
        raise BothZero("gcd of two zero polynomials")
    if p.is_zero:
        return q.degree()
    if q.is_zero:
        return p.degree()
    if p.degree() == 0 or q.degree() == 0:
        return 0  # a nonzero constant shares no factor, however small
    if len(a) < len(b):
        a, b = b, a
    while True:
        b = _trim(b, rtol)
        if len(b) == 1 and abs(b[0]) <= rtol * np.max(np.abs(a)):
            return len(_trim(a, rtol)) - 1
        if len(b) == 1:
            return 0
        _, r = np.polynomial.polynomial.polydiv(_trim(a, rtol), b)
        if np.max(np.abs(r)) <= rtol * np.max(np.abs(b)):
            return len(b) - 1  # b divides a up to rounding
        a, b = b, r


def normalize_pair(r1: Polynomial, r2: Polynomial):
    """Scale a boundary pair into the normalized class.

    Returns (r1, r2, case) where case is "M1=M2" (deg r1 >= deg r2, r1 monic)
    or "M1=M2-1" (deg r1 < deg r2, r2 monic).  Both polynomials are divided by
    the same constant; the boundary condition is homogeneous so this is free.
    """
    if r1.is_zero and r2.is_zero:
        raise BothZero("boundary pair (0, 0)")
    if not r1.is_zero and not r2.is_zero:
        if poly_gcd_degree(r1, r2) > 0:
            raise NotCoprime("boundary polynomials share a nonconstant factor")
    if r1.is_zero:
        case = "M1=M2-1"
        lead = r2.coeffs[-1]
    elif r2.is_zero or r1.degree() >= r2.degree():
        case = "M1=M2"
        lead = r1.coeffs[-1]
    else:
        case = "M1=M2-1"
        lead = r2.coeffs[-1]
    inv = 1.0 / lead
    r1, r2 = r1.scaled(inv), r2.scaled(inv)
    # lead * inv can miss 1 by an ulp, and normalizing again would then move
    # every coefficient: the monic polynomial gets its leading 1 exactly
    if case == "M1=M2":
        return Polynomial(r1.coeffs[:-1] + (1.0,)), r2, case
    return r1, Polynomial(r2.coeffs[:-1] + (1.0,)), case


# ---------------------------------------------------------------------------
# Antiderivative of the potential.


class SigmaFunction:
    """sigma in L2(0, pi) with q = sigma'; evaluable at any x in [0, pi]."""

    kind = "abstract"

    def __call__(self, x):
        raise NotImplementedError

    def breakpoints(self):
        """Interior points where sigma jumps or kinks (mandatory mesh nodes)."""
        return ()

    @property
    def is_real(self) -> bool:
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError

    @staticmethod
    def from_json(data) -> "SigmaFunction":
        kind = data["kind"]
        if kind == "zero":
            return SigmaZero()
        if kind == "step":
            jump = data["jump"]
            if isinstance(jump, bool) or not isinstance(jump, (int, float)):
                raise TypeError(f"step jump {jump!r} is not a number")
            return SigmaStep(from_pair(data["height"]), float(jump))
        if kind == "poly_x":
            return SigmaPolynomialInX([from_pair(v) for v in data["coeffs"]])
        if kind == "grid":
            return SigmaGridSamples([from_pair(v) for v in data["values"]])
        raise ValueError(f"unknown sigma kind {kind!r}")


class SigmaZero(SigmaFunction):
    kind = "zero"

    def __call__(self, x):
        return np.zeros_like(np.asarray(x, dtype=float), dtype=complex)

    @property
    def is_real(self):
        return True

    def to_json(self):
        return {"kind": "zero"}


class SigmaStep(SigmaFunction):
    """sigma = height * Heaviside(x - jump): the delta interaction q = h delta."""

    kind = "step"

    def __init__(self, height: complex, jump: float):
        if not 0.0 < jump < np.pi:
            raise ValueError("jump point must lie in (0, pi)")
        self.height = complex(height)
        self.jump = float(jump)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > self.jump, self.height, 0.0).astype(complex)

    def breakpoints(self):
        return (self.jump,)

    @property
    def is_real(self):
        return self.height.imag == 0.0

    def to_json(self):
        return {"kind": "step", "height": cplx(self.height), "jump": self.jump}


class SigmaPolynomialInX(SigmaFunction):
    kind = "poly_x"

    def __init__(self, coeffs):
        self.coeffs = tuple(complex(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("poly_x sigma needs at least one coefficient")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        acc = np.full(x.shape, self.coeffs[-1], dtype=complex)
        # a huge sigma overflows here; its caller raises the typed error
        with np.errstate(over="ignore", invalid="ignore"):
            for c in self.coeffs[-2::-1]:
                acc = acc * x + c
        return acc

    @property
    def is_real(self):
        return all(c.imag == 0.0 for c in self.coeffs)

    def to_json(self):
        return {"kind": "poly_x", "coeffs": [cplx(c) for c in self.coeffs]}


class SigmaGridSamples(SigmaFunction):
    """Values on a uniform grid over [0, pi], linear interpolation between."""

    kind = "grid"

    def __init__(self, values):
        vals = np.asarray(values, dtype=complex).ravel()
        if vals.size < 2:
            raise ValueError("grid sigma needs at least 2 samples")
        self.values = vals
        self.grid = np.linspace(0.0, np.pi, vals.size)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        re = np.interp(x, self.grid, self.values.real)
        im = np.interp(x, self.grid, self.values.imag)
        return re + 1j * im

    def breakpoints(self):
        return self.grid[1:-1]

    @property
    def is_real(self):
        return bool(np.all(self.values.imag == 0.0))

    def to_json(self):
        return {"kind": "grid", "values": [cplx(v) for v in self.values]}


# ---------------------------------------------------------------------------
# Problem objects.


@dataclass(frozen=True)
class ProblemL:
    """Inner problem: ly = lam y, y^[1](0) = 0, r1 y^[1](pi) + r2 y(pi) = 0.

    The pair (r1, r2) is normalized on construction.  m1/m2 are the padded
    class degrees: in the "M1=M2" case m2 counts r2 as if padded up to deg r1,
    and symmetrically in the other case.
    """

    sigma: SigmaFunction
    r1: Polynomial
    r2: Polynomial
    case: str = field(init=False)
    m1: int = field(init=False)
    m2: int = field(init=False)

    def __post_init__(self):
        r1n, r2n, case = normalize_pair(self.r1, self.r2)
        object.__setattr__(self, "r1", r1n)
        object.__setattr__(self, "r2", r2n)
        object.__setattr__(self, "case", case)
        if case == "M1=M2":
            m1 = r1n.degree()
            object.__setattr__(self, "m1", m1)
            object.__setattr__(self, "m2", m1)
        else:
            m2 = r2n.degree()
            object.__setattr__(self, "m1", m2 - 1)
            object.__setattr__(self, "m2", m2)

    @property
    def is_real(self) -> bool:
        return (self.sigma.is_real
                and all(c.imag == 0.0 for c in self.r1.coeffs)
                and all(c.imag == 0.0 for c in self.r2.coeffs))


@dataclass(frozen=True)
class FullProblem:
    """Problem with polynomial conditions at both ends.

    p1 y^[1](0) - p2 y(0) = 0 replaces the inner y^[1](0) = 0 condition.
    """

    p1: Polynomial
    p2: Polynomial
    inner: ProblemL

    def __post_init__(self):
        # normalize_pair rejects a zero or non-coprime pair and applies the
        # scaling convention of (r1, r2); a recorded convention, the boundary
        # condition itself is scale free.
        p1n, p2n, _ = normalize_pair(self.p1, self.p2)
        object.__setattr__(self, "p1", p1n)
        object.__setattr__(self, "p2", p2n)


def problem_to_json(prob) -> dict:
    """Serializable form of ProblemL or FullProblem ("problem.json")."""
    if isinstance(prob, FullProblem):
        inner = prob.inner
        p1, p2 = prob.p1, prob.p2
    else:
        inner = prob
        p1, p2 = Polynomial([1.0]), Polynomial([0.0])
    return {
        "sigma": inner.sigma.to_json(),
        "r1": inner.r1.to_json(),
        "r2": inner.r2.to_json(),
        "p1": p1.to_json(),
        "p2": p2.to_json(),
    }


def problem_from_json(data) -> FullProblem:
    """FullProblem from a "problem.json" document; a document that breaks the
    schema (a missing key, an unknown sigma kind, a value of the wrong type or
    range, a boundary pair that is zero or not coprime) raises MalformedInput."""
    try:
        inner = ProblemL(
            sigma=SigmaFunction.from_json(data["sigma"]),
            r1=Polynomial.from_json(data["r1"]),
            r2=Polynomial.from_json(data["r2"]),
        )
        return FullProblem(
            p1=Polynomial.from_json(data.get("p1", [[1.0, 0.0]])),
            p2=Polynomial.from_json(data.get("p2", [[0.0, 0.0]])),
            inner=inner,
        )
    except (KeyError, TypeError, ValueError, OverflowError, BothZero, NotCoprime) as exc:
        raise MalformedInput(f"problem: {exc!r}") from None
