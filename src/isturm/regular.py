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
from .maineq import PhiTable
from .problem import Polynomial
from .reconstruct import SigmaResult, _bc_constant_sum, reconstruct_sigma

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


def build_p2(zeros, bN2: complex) -> Polynomial:
    """p2(lam) = b_N2 prod_j (lam - z_j); repeated zeros allowed."""
    coeffs = np.array([1.0], dtype=complex)
    for z in zeros:
        coeffs = np.convolve(coeffs, np.array([-complex(z), 1.0], dtype=complex))
    return Polynomial(complex(bN2) * coeffs)


def check_r2_shift(r2: Polynomial, r1: Polynomial, sigma_pi: complex) -> Polynomial:
    """Classical-form boundary polynomial: r2_check = r2 - sigma(pi) r1.

    For the normalized class the shift only moves the lower coefficients;
    with r1 = 1 this is the scalar shift of the Robin constant.
    """
    c2 = np.zeros(max(len(r2.coeffs), len(r1.coeffs)), dtype=complex)
    c2[: len(r2.coeffs)] = r2.coeffs
    c2[: len(r1.coeffs)] -= sigma_pi * np.asarray(r1.coeffs)
    return Polynomial(c2)


def robin_constants(table: PhiTable, sigma: SigmaResult | None = None):
    """(b0, b0_check) for the constant-condition case M1 = 0 of the table's
    model.

    b0 is the large-|lambda| limit of the r2 expression (minus the boundary
    constant sum); b0_check subtracts the reconstructed sigma(pi)
    (reconstruct_sigma(table) when sigma is None)."""
    if table.ctx.md.M1 != 0:
        raise ValueError("robin_constants applies to the M1 = 0 case")
    if sigma is None:
        sigma = reconstruct_sigma(table)
    b0 = -_bc_constant_sum(table)
    return complex(b0), complex(b0 - sigma.sigma_pi)
