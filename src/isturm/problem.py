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

from ._util import cplx
from .errors import BothZero, NotCoprime

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

    def coeff(self, n: int) -> complex:
        """Coefficient of lambda**n, zero beyond the stored degree."""
        return self.coeffs[n] if n < len(self.coeffs) else 0.0

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    def to_json(self):
        return [cplx(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "Polynomial":
        return cls([complex(re, im) for re, im in data])


def poly_eval(p: Polynomial, lam):
    """Horner evaluation; lam may be scalar or array."""
    lam = np.asarray(lam, dtype=complex)
    acc = np.full(lam.shape, p.coeffs[-1], dtype=complex)
    for c in p.coeffs[-2::-1]:
        acc = acc * lam + c
    return acc if acc.shape else complex(acc)


def _poly_divmod(a: np.ndarray, b: np.ndarray):
    # arrays ascending, b trimmed and nonzero
    a = a.copy()
    q = np.zeros(max(len(a) - len(b) + 1, 1), dtype=complex)
    while len(a) >= len(b) and np.max(np.abs(a)) > 0:
        k = len(a) - len(b)
        f = a[-1] / b[-1]
        q[k] = f
        a[k:] -= f * b
        a = a[:-1]
        if len(a) == 0:
            a = np.zeros(1, dtype=complex)
    return q, a


def poly_gcd_degree(p: Polynomial, q: Polynomial, rtol: float = ZERO_RTOL) -> int:
    """Degree of the monic gcd, Euclidean algorithm with deflation."""
    a, b = p.as_array(), q.as_array()
    if p.is_zero and q.is_zero:
        raise BothZero("gcd of two zero polynomials")
    if p.is_zero:
        return q.degree()
    if q.is_zero:
        return p.degree()
    if len(a) < len(b):
        a, b = b, a
    while True:
        b = _trim(b, rtol)
        if len(b) == 1 and abs(b[0]) <= rtol * max(1.0, np.max(np.abs(a))):
            return len(_trim(a, rtol)) - 1
        if len(b) == 1:
            return 0
        _, r = _poly_divmod(_trim(a, rtol), b)
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
    return r1.scaled(inv), r2.scaled(inv), case


# ---------------------------------------------------------------------------
# Antiderivative of the potential.


class SigmaFunction:
    """sigma in L2(0, pi) with q = sigma'; evaluable at any x in [0, pi]."""

    kind = "abstract"

    def __call__(self, x):
        raise NotImplementedError

    def jump_points(self):
        """Interior points where sigma jumps (mandatory mesh nodes)."""
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
            re, im = data["height"]
            return SigmaStep(complex(re, im), float(data["jump"]))
        if kind == "poly_x":
            return SigmaPolynomialInX([complex(re, im) for re, im in data["coeffs"]])
        if kind == "grid":
            return SigmaGridSamples([complex(re, im) for re, im in data["values"]])
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

    def jump_points(self):
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

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        acc = np.full(x.shape, self.coeffs[-1], dtype=complex)
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
        if self.p1.is_zero and self.p2.is_zero:
            raise BothZero("pair (p1, p2)")
        if not self.p1.is_zero and not self.p2.is_zero:
            if poly_gcd_degree(self.p1, self.p2) > 0:
                raise NotCoprime("p1 and p2 share a nonconstant factor")
        # Same scaling convention as (r1, r2); a recorded convention, the
        # boundary condition itself is scale free.
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
