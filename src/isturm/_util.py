"""Shared numerics: square-root branch, entire-function towers, canonical
JSON.

The spectral parameter enters everything through rho = sqrt(lambda) with the
branch fixed to arg rho in [-pi/2, pi/2).  Model quantities reduce to the
Taylor coefficients in lambda of cos(sqrt(lambda) x), which are entire; they
are evaluated through the scaled tower c_j(w) = (1/j!) (d/dw)^j cos(sqrt(w))
so that no branch or 0/0 issues arise at lambda = 0; they are real for real
input and complex for complex input.
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
# Closed forms in s = sqrt(w) are even in s and lose about |s|^(-2j) to
# cancellation, so a 16-term series covers |w| <= 4, where it is exact to
# rounding for every order.  c_j' = (j+1) c_{j+1}.

_C_SERIES_TERMS = 16

# series coefficients (-1)^m C(m, j) / (2m)!, m = j .. j + 15, in row j = 0..4
_C_COEF = np.array([[(-1) ** m * comb(m, j) / factorial(2 * m)
                     for m in range(j, j + _C_SERIES_TERMS)] for j in range(5)])

# closed forms of c_0 .. c_4 in s, sin s, cos s
_C_CLOSED = (
    lambda s, sn, cs: cs,
    lambda s, sn, cs: -sn / (2 * s),
    lambda s, sn, cs: (sn - s * cs) / (8 * s**3),
    lambda s, sn, cs: ((s * s - 3) * sn + 3 * s * cs) / (48 * s**5),
    lambda s, sn, cs: ((15 - 6 * s * s) * sn + s * (s * s - 15) * cs) / (384 * s**7),
)


def _series_powers(w):
    """w^0 .. w^15 on a new first axis, by repeated squaring."""
    p = np.ones((_C_SERIES_TERMS,) + np.shape(w), dtype=np.result_type(w, float))
    for k in (1, 2, 4, 8):
        p[k:2 * k] = p[:k] * w
        w = w * w
    return p


def _c_series(j, w):
    # sum_{m >= j} (-1)^m C(m, j) w^(m-j) / (2m)! for an order j or a slice of
    # orders, as one real matrix product (on the re and im parts of complex powers)
    p = _series_powers(w).reshape(_C_SERIES_TERMS, -1)
    return (_C_COEF[j] @ p.view(float)).view(p.dtype).reshape(np.shape(_C_COEF[j])[:-1] + w.shape)


def cos_sqrt_taylor(j, w):
    """c_j(w) for an order 0 <= j <= 4, or for a slice of orders stacked on a
    new first axis; w float or complex.  The series where |w| <= 4, the closed
    forms elsewhere."""
    w = np.asarray(w)
    w = w.astype(np.result_type(w, float), copy=False)
    out = np.empty(np.shape(_C_COEF[j])[:-1] + w.shape, dtype=w.dtype)
    series = np.abs(w) <= 4.0
    out[..., series] = _c_series(j, w[series])
    s = np.sqrt(w[~series].astype(complex))  # any branch: the closed forms are even in s
    sn, cs = np.sin(s), np.cos(s)
    f = _C_CLOSED[j]
    vals = np.array([g(s, sn, cs) for g in f]) if isinstance(j, slice) else f(s, sn, cs)
    out[..., ~series] = vals if np.iscomplexobj(out) else vals.real
    return out


def phi_model(j, x, lam):
    """(1/j!) d^j/dlam^j cos(sqrt(lam) x); entire in lam, valid at lam = 0."""
    x = np.asarray(x, dtype=float)
    return x ** (2 * j) * cos_sqrt_taylor(j, np.asarray(lam) * x * x)


def _phi_tower(top, x, lam):
    """phi_model and phi_model_dx of orders 0..top, each (top + 1, len(lam))."""
    c = cos_sqrt_taylor(slice(top + 2), lam * x * x)
    j = np.arange(top + 1)[:, None]
    xj = x ** np.maximum(2 * j - 1, 0)  # 2 j x^(2j-1), with 0 for j = 0 also at x = 0
    return x ** (2 * j) * c[:-1], 2 * lam * (j + 1) * x ** (2 * j + 1) * c[1:] + 2 * j * xj * c[:-1]


def phi_model_dx(j, x, lam):
    """x-derivative of phi_model(j, x, lam) at a scalar x."""
    lam = np.asarray(lam)
    return _phi_tower(j, float(x), lam.ravel())[1][j].reshape(lam.shape)


# ---------------------------------------------------------------------------
# Canonical JSON: sorted keys, floats at 17 significant digits, complex as
# [re, im]. Deterministic across runs; atomic writes.


def cplx(z):
    z = complex(z)
    return [z.real, z.imag]


def from_pair(v) -> complex:
    """Finite complex from a JSON [re, im] pair; a pair of any other shape,
    with a boolean or with a non-finite part raises MalformedInput."""
    try:
        re, im = v
        if isinstance(re, bool) or isinstance(im, bool):
            raise TypeError("a boolean is not a number")
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
