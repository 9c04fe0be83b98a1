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

import functools

import numpy as np

from ._util import MAX_DERIV_ORDER, gauss_legendre, phi_model, sqrt_lambda
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
        if K <= self.M1:
            raise MalformedInput(f"K={K} splits the model's {self.M1 + 1}-fold zero")
        lams = [self.lambda_tilde(n) for n in range(1, K + 1)]
        alphas = [self.alpha_tilde(n) for n in range(1, K + 1)]
        return SpectralData.from_flat(lams, alphas, m1=self.M1, case="M1=M2")


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


# Gauss-Legendre node counts of kernel_D_derivs_batch, about sqrt(2) apart
_NODE_LADDER = np.array([24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 700])


@functools.cache
def _ladder_rules():
    """Nodes and weights on [-1, 1] of every _NODE_LADDER rule, end to end,
    and the offset of each rule."""
    t, w = zip(*(gauss_legendre(int(n)) for n in _NODE_LADDER))
    return np.concatenate(t), np.concatenate(w), np.cumsum(_NODE_LADDER) - _NODE_LADDER


def kernel_D_derivs_batch(x, lams, j_lams, mus, j_mus):
    """Vectorized kernel derivatives for mixed order batches (1-D arrays).

    Each entry takes the Gauss-Legendre rule sized by its own
    x (|rho_lam| + |rho_mu|), rounded up to _NODE_LADDER, so its value does
    not depend on the other entries of the batch.  The entries of one order
    pair are evaluated in one flat array, node by node, and each entry's
    products are summed by np.add.reduceat over its own segment.  Orders
    above MAX_DERIV_ORDER raise OrderTooHigh."""
    lams = np.asarray(lams, dtype=complex)
    mus = np.asarray(mus, dtype=complex)
    j_lams = np.asarray(j_lams, dtype=int)
    j_mus = np.asarray(j_mus, dtype=int)
    out = np.zeros(lams.shape, dtype=complex)
    if lams.size == 0:
        return out
    if max(j_lams.max(), j_mus.max()) > MAX_DERIV_ORDER:
        raise OrderTooHigh("kernel derivative order above the multiplicity cap")
    if x == 0.0:
        return out
    n_raw = np.minimum(700, np.maximum(24, 0.9 * x * (np.abs(sqrt_lambda(lams))
                                                      + np.abs(sqrt_lambda(mus))) + 16))
    rung = np.searchsorted(_NODE_LADDER, n_raw.astype(int))
    t_ref, w_ref, start = _ladder_rules()
    half = 0.5 * x
    for jl, jm in np.unique(np.stack([j_lams, j_mus]), axis=1).T:
        e = np.flatnonzero((j_lams == jl) & (j_mus == jm))
        n = _NODE_LADDER[rung[e]]
        first = np.cumsum(n) - n
        node = np.repeat(start[rung[e]] - first, n) + np.arange(first[-1] + n[-1])
        t = half + half * t_ref[node]
        fl = phi_model(int(jl), t, np.repeat(lams[e], n))
        fm = phi_model(int(jm), t, np.repeat(mus[e], n))
        out[e] = np.add.reduceat(half * w_ref[node] * fl * fm, first)
    return out
