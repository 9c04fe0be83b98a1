"""Shared numerics: square-root branch, entire-function towers, quadrature
nodes, canonical JSON.

The spectral parameter enters everything through rho = sqrt(lambda) with the
branch fixed to arg rho in [-pi/2, pi/2).  Model quantities reduce to the
Taylor coefficients in lambda of cos(sqrt(lambda) x), which are entire; they
are evaluated through the scaled tower c_j(w) = (1/j!) (d/dw)^j cos(sqrt(w))
so that no branch or 0/0 issues arise at lambda = 0.
"""
from __future__ import annotations

import cmath
import json
import os
import tempfile
from math import comb, factorial

import numpy as np

from .errors import MalformedInput

PI = np.pi

MAX_DERIV_ORDER = 3  # multiplicity cap: clusters up to triple eigenvalues


def sqrt_lambda(lam):
    """sqrt(lambda) with arg in [-pi/2, pi/2); vectorized."""
    r = np.sqrt(np.asarray(lam, dtype=complex))
    # numpy principal branch gives arg in (-pi/2, pi/2]; flip the arg = pi/2 ray
    flip = np.angle(r) >= PI / 2 - 1e-14
    return np.where(flip, -r, r)


def lam_batch(lam):
    """(lam as an at-least-1-D complex array, shaped): shaped(out) returns
    out[0] as a complex when lam is a scalar, else out unchanged."""
    if np.ndim(lam) == 0:
        return np.atleast_1d(np.asarray(lam, dtype=complex)), lambda out: complex(out[0])
    return np.asarray(lam, dtype=complex), lambda out: out


# ---------------------------------------------------------------------------
# Taylor tower of cos(sqrt(w)):  c_j(w) = (1/j!) (d/dw)^j cos(sqrt(w)).
# Closed forms in s = sqrt(w) are even in s; a series branch covers a disk
# |s| < r_j.  The closed form of c_j loses about |s|^(-2j) to cancellation
# (at |s| = 1/2: 1e-13 relative for j = 3, 1e-11 for j = 4), so r_j is 1/2 for
# j <= 2 and 2 for j = 3, 4, where 16 series terms are still exact to rounding.
# c_j' = (j+1) c_{j+1}.

_C_SERIES_TERMS = 16
_C_SERIES_RADIUS = (0.5, 0.5, 0.5, 2.0, 2.0)

# series coefficients (-1)^m C(m, j) / (2m)!, m = j .. j + 15, for j = 0..4
_C_COEF = [[(-1) ** m * comb(m, j) / factorial(2 * m) for m in range(j, j + _C_SERIES_TERMS)]
           for j in range(5)]


def _c_series(j, w):
    # sum_{m >= j} (-1)^m C(m, j) w^(m-j) / (2m)!
    out = np.zeros_like(w)
    term = np.ones_like(w)  # w^(m-j) running power
    for c in _C_COEF[j]:
        out = out + c * term
        term = term * w
    return out


def cos_sqrt_taylor(j, w):
    """c_j(w) for 0 <= j <= 4; w complex array."""
    w = np.asarray(w, dtype=complex)
    s = np.sqrt(w)  # branch-irrelevant: formulas below are even in s
    ssafe = np.where(np.abs(s) < 1e-300, 1.0, s)
    sn, cs = np.sin(s), np.cos(s)
    if j == 0:
        closed = cs
    elif j == 1:
        closed = -sn / (2 * ssafe)
    elif j == 2:
        closed = (sn - s * cs) / (8 * ssafe**3)
    elif j == 3:
        closed = ((s * s - 3) * sn + 3 * s * cs) / (48 * ssafe**5)
    elif j == 4:
        closed = ((15 - 6 * s * s) * sn + s * (s * s - 15) * cs) / (384 * ssafe**7)
    else:
        raise ValueError(f"cos_sqrt_taylor order {j} not implemented")
    small = np.abs(s) < _C_SERIES_RADIUS[j]
    out = np.where(small, 0, closed)
    out[small] = _c_series(j, w[small])
    return out


def phi_model(j, x, lam):
    """(1/j!) d^j/dlam^j cos(sqrt(lam) x); entire in lam, valid at lam = 0."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=complex)
    return x ** (2 * j) * cos_sqrt_taylor(j, lam * x * x)


def phi_model_dx(j, x, lam):
    """x-derivative of phi_model(j, x, lam)."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=complex)
    u = lam * x * x
    out = 2 * lam * (j + 1) * x ** (2 * j + 1) * cos_sqrt_taylor(j + 1, u)
    if j > 0:
        out = out + 2 * j * x ** (2 * j - 1) * cos_sqrt_taylor(j, u)
    return out


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes, cached.

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


# ---------------------------------------------------------------------------
# Canonical JSON: sorted keys, floats at 17 significant digits, complex as
# [re, im]. Deterministic across runs; atomic writes.


def cplx(z):
    z = complex(z)
    return [z.real, z.imag]


def from_pair(v) -> complex:
    """Finite complex from a JSON [re, im] pair; a pair of any other shape or
    with a non-finite part raises MalformedInput."""
    try:
        re, im = v
        z = complex(re, im)
    except (TypeError, ValueError, OverflowError):
        raise MalformedInput(f"{v!r} is not an [re, im] pair") from None
    if not cmath.isfinite(z):
        raise MalformedInput(f"{v!r} is not finite")
    return z


def _fmt(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return json.dumps(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("non-finite float in canonical JSON")
        # + 0.0 maps -0.0 to 0.0: JSON -0 reads back as the integer 0
        return f"{value + 0.0:.17g}"
    if isinstance(value, complex):
        return _fmt([value.real, value.imag])
    if isinstance(value, (np.integer,)):
        return json.dumps(int(value))
    if isinstance(value, (np.floating,)):
        return _fmt(float(value))
    if isinstance(value, (np.complexfloating,)):
        return _fmt(complex(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        items = [_fmt(v) for v in value]
        return "[" + ",".join(items) + "]"
    if isinstance(value, dict):
        parts = []
        for key in sorted(value):
            parts.append(json.dumps(str(key)) + ":" + _fmt(value[key]))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot canonicalize {type(value)}")


def canonical_dumps(obj) -> str:
    return _fmt(obj) + "\n"


def write_json_atomic(path, obj):
    """Canonical serialization, write-then-rename."""
    text = canonical_dumps(obj)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path):
    """Parsed JSON document; text that is not JSON raises MalformedInput."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise MalformedInput(f"{path}: not a JSON document: {exc}") from None
