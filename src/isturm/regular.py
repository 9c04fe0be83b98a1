"""Regular-potential layer: both-ends polynomial conditions, recovery of the
leading p2 coefficient from the Weyl asymptotics on the negative real ray,
and the transfer between the antiderivative form and the classical q form.

The classical problem -y'' + q y = lam y with conditions on y' is equivalent
to the quasi-derivative problem with sigma(x) = int_0^x q, r1 unchanged and
r2 shifted by sigma(pi) r1; the recovery direction undoes the shift here and
differentiates sigma with refine.recover_q.
"""
from __future__ import annotations

import numpy as np

from .errors import FitUnstable
from .problem import Polynomial

RHO_MAGS = np.linspace(20.0, 80.0, 13)  # |rho| sample points of the b_N2 fit


def estimate_bN2(m1_fn, N1: int) -> complex:
    """Leading coefficient of p2 from the large-|lambda| behavior of the Weyl
    function on the negative real axis.

    With rho = -i t (the branch with arg rho in [-pi/2, pi/2)), the quantity
    i rho (1 + i rho lam^N1 M1(lam)) tends to b_{N2}; a linear fit in 1/t at
    t in RHO_MAGS removes the first-order remainder.
    """
    t = RHO_MAGS
    lam = -(t**2) + 0j
    rho = -1j * t
    m1v = np.asarray(m1_fn(lam), dtype=complex)
    est = (1j * rho) * (1.0 + (1j * rho) * lam**N1 * m1v)
    A = np.stack([np.ones_like(t), 1.0 / t], axis=1)
    coef, *_ = np.linalg.lstsq(A, est, rcond=None)
    resid = np.max(np.abs(A @ coef - est))
    b = complex(coef[0])
    if resid > 0.05 * max(abs(b), 1e-2):
        raise FitUnstable(f"b_N2 extrapolation residual {resid:.3g} against b={b:.6g}")
    return b


def check_r2_shift(r2: Polynomial, r1: Polynomial, sigma_pi: complex) -> Polynomial:
    """Classical-form boundary polynomial: r2_check = r2 - sigma(pi) r1.

    For the normalized class the shift only moves the lower coefficients;
    with r1 = 1 this is the scalar shift of the Robin constant.
    """
    return r2 - Polynomial(sigma_pi * r1.as_array())

