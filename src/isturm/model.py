"""The explicitly solvable reference problem and its kernels.

The reference problem (zero potential, boundary polynomials lambda^M1 and 0)
has eigenvalues (n - M1 - 1)^2 padded with an (M1+1)-fold zero, weight numbers
2/pi beyond the padding, and solutions cos(rho x).  Its two-point kernel

    D(x, lam, mu) = <phi(x, lam), phi(x, mu)> / (lam - mu)
                  = int_0^x cos(sqrt(lam) t) cos(sqrt(mu) t) dt

carries the whole inverse machinery; principal-part coefficients of
D(x, lam, mu) * (Weyl difference)(mu) give the system coefficients Q.
"""
from __future__ import annotations

import numpy as np

from ._util import (MAX_DERIV_ORDER, gl_nodes_on, phi_model, phi_model_dx,
                    sqrt_lambda)
from .errors import MalformedInput, OrderTooHigh
from .spectral import SpectralData

PI = np.pi

EPS_D_BASE = 1e-6  # |lam - mu| <= EPS_D_BASE (1 + |lam|) switches to the diagonal branch


class ModelData:
    """Closed-form spectral data of the reference problem, indexed from 1."""

    def __init__(self, M1: int):
        if M1 < 0:
            raise MalformedInput("M1 must be nonnegative")
        if M1 > MAX_DERIV_ORDER - 1:
            raise OrderTooHigh(f"model cluster size {M1 + 1} exceeds the multiplicity cap")
        self.M1 = int(M1)

    def lambda_tilde(self, n: int) -> complex:
        return complex(max(n - self.M1 - 1, 0) ** 2)

    def alpha_tilde(self, n: int) -> complex:
        if n == 1:
            return complex(1 / PI)
        if n <= self.M1 + 1:
            return 0j
        return complex(2 / PI)

    def spectral_data(self, K: int) -> SpectralData:
        lams = [self.lambda_tilde(n) for n in range(1, K + 1)]
        alphas = [self.alpha_tilde(n) for n in range(1, K + 1)]
        return SpectralData.from_flat(lams, alphas, m1=self.M1, case="M1=M2")


def model_phi(x, lam, j: int = 0):
    """(1/j!) d^j/dlam^j of cos(sqrt(lam) x); entire, safe at lam = 0."""
    if j > MAX_DERIV_ORDER:
        raise OrderTooHigh(f"derivative order {j} above the cap")
    return phi_model(j, x, lam)


def model_phi_dx(x, lam, j: int = 0):
    """x-derivative of model_phi."""
    if j > MAX_DERIV_ORDER:
        raise OrderTooHigh(f"derivative order {j} above the cap")
    return phi_model_dx(j, x, lam)


def kernel_D(x, lam, mu):
    """D(x, lam, mu), quotient branch away from the diagonal, first-order
    Taylor around the diagonal inside |lam - mu| <= 1e-6 (1 + |lam|).

    The square roots, sines and cosines run on the unbroadcast inputs, so an
    outer call kernel_D(x, lam[:, None], mu[None, :]) costs O(n + m)
    transcendentals; only the products and the branch choice are (n, m)."""
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    rl = np.asarray(sqrt_lambda(lam))
    rm = np.asarray(sqrt_lambda(mu))
    dd = lam - mu
    small = np.abs(dd) <= EPS_D_BASE * (1 + np.abs(lam))
    num = rl * np.sin(rl * x) * np.cos(rm * x) - rm * np.cos(rl * x) * np.sin(rm * x)
    far = num / np.where(small, 1.0, dd)

    u = 2 * rl * x
    au = np.abs(u)
    sinc_u = np.where(au < 1e-8, 1 - u * u / 6, np.sin(u) / np.where(au < 1e-300, 1.0, u))
    d_diag = x / 2 + (x / 2) * sinc_u
    # d/dmu D at mu = lam: (2 rho x cos 2rho x - sin 2rho x) / (16 rho^3)
    dmu_diag = np.where(
        au < 1e-3,
        -x**3 / 6 * (1 - u * u / 10),
        (u * np.cos(u) - np.sin(u)) / np.where(np.abs(rl) < 1e-300, 1.0, 16 * rl**3),
    )
    near = d_diag + (mu - lam) * dmu_diag
    out = np.where(small, near, far)
    if out.shape == ():
        return complex(out)
    return out


def _quad_nodes(x, scale):
    n = int(min(700, max(24, 0.9 * x * scale + 16)))
    return gl_nodes_on(0.0, x, n)


def kernel_D_derivs(x, lam, mu, j_lam: int = 0, j_mu: int = 0):
    """(1/j_lam!)(1/j_mu!) d^j_lam_lam d^j_mu_mu of D(x, lam, mu).

    Evaluated as int_0^x phi_model(j_lam) phi_model(j_mu) dt by Gauss-Legendre
    quadrature with the node count scaled to x max(|rho|)."""
    if j_lam > MAX_DERIV_ORDER or j_mu > MAX_DERIV_ORDER:
        raise OrderTooHigh("kernel derivative order above the multiplicity cap")
    lam, mu = np.broadcast_arrays(np.asarray(lam, dtype=complex), np.asarray(mu, dtype=complex))
    j = np.zeros(lam.size, dtype=int)
    out = kernel_D_derivs_batch(x, lam.ravel(), j + j_lam, mu.ravel(), j + j_mu).reshape(lam.shape)
    if out.shape == ():
        return complex(out)
    return out


def kernel_D_derivs_batch(x, lams, j_lams, mus, j_mus):
    """Vectorized kernel derivatives for mixed order batches (shared nodes)."""
    lams = np.asarray(lams, dtype=complex)
    mus = np.asarray(mus, dtype=complex)
    j_lams = np.asarray(j_lams, dtype=int)
    j_mus = np.asarray(j_mus, dtype=int)
    out = np.zeros(lams.shape, dtype=complex)
    if x == 0.0 or lams.size == 0:
        return out
    scale = float(np.max(np.abs(sqrt_lambda(lams))) + np.max(np.abs(sqrt_lambda(mus))))
    t, w = _quad_nodes(x, scale)
    for jl, jm in np.unique(np.stack([j_lams.ravel(), j_mus.ravel()]), axis=1).T:
        sel = (j_lams == jl) & (j_mus == jm)
        fl = phi_model(int(jl), t[:, None], lams[sel][None, :])
        fm = phi_model(int(jm), t[:, None], mus[sel][None, :])
        out[sel] = (w[:, None] * fl * fm).sum(axis=0)
    return out
