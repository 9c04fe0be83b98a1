"""The explicitly solvable reference problem and its kernels.

The reference problem (zero potential, boundary polynomials lambda^M1 and 0)
has eigenvalues (n - M1 - 1)^2 padded with an (M1+1)-fold zero, weight numbers
2/pi beyond the padding, and solutions cos(rho x).  Its two-point kernel

    D(x, lam, mu) = <phi(x, lam), phi(x, mu)> / (lam - mu)
                  = int_0^x cos(sqrt(lam) t) cos(sqrt(mu) t) dt
                  = (x/2) [sinc((rho_lam + rho_mu) x) + sinc((rho_lam - rho_mu) x)]

carries the whole inverse machinery; kernel_D evaluates the last form, which
has no cancellation at lam = mu; principal-part coefficients of
D(x, lam, mu) * (Weyl difference)(mu) give the system coefficients Q.  The
kernel derivatives of clusters are real for real lam and mu.
"""
from __future__ import annotations

import functools

import numpy as np

from ._util import _C_COEF, MAX_DERIV_ORDER, _series_powers, phi_model, sqrt_lambda
from .errors import MalformedInput, OrderTooHigh
from .spectral import SpectralData

PI = np.pi

# the Cauchy product N(x, lam, mu) / (lam - mu) of the main equation loses
# about eps (1 + |rho_lam| + |rho_mu|)^2 / |lam - mu| relative; inside
# |lam - mu| <= EPS_D_BASE (1 + |rho_lam| + |rho_mu|)^2 it takes kernel_D
# instead (tests/test_model.py measures the threshold)
EPS_D_BASE = 1e-3

# _kernel_D_recurrence loses about 1/delta per order, delta = |lam - mu| x^2 /
# (1 + x (|rho_lam| + |rho_mu|)); tests/test_model.py measures the threshold
RECURRENCE_SEPARATION = 2.0
SERIES_RADIUS = 9.0  # _kernel_D_series is exact to rounding for |lam x^2|, |mu x^2| <= 9


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
    """D(x, lam, mu) = (x/2) [sinc(p x) + sinc(m x)], p, m = rho_lam +- rho_mu.

    Of p and m, the one of larger modulus is formed directly and the other as
    (lam - mu) / larger, so neither cancels near the diagonal; larger = 0 only
    at lam = mu = 0.  The square roots run on the unbroadcast inputs; the sines
    are (n, m) in an outer call kernel_D(x, lam[:, None], mu[None, :])."""
    p, m = _kernel_D_pm(lam, mu)
    out = (x / 2) * (_sinc(p * x) + _sinc(m * x))
    if out.shape == ():
        return complex(out)
    return out


def _kernel_D_pm(lam, mu):
    """kernel_D's p and m: the larger formed directly, the other as (lam - mu) / larger."""
    lam, mu = np.asarray(lam, dtype=complex), np.asarray(mu, dtype=complex)
    rl, rm = sqrt_lambda(lam), sqrt_lambda(mu)
    p, m = rl + rm, rl - rm
    big = np.where(np.abs(p) >= np.abs(m), p, m)
    return big, (lam - mu) / np.where(big == 0, 1.0, big)


def _sinc(z):
    """sin(z) / z, 1 at z = 0."""
    return np.divide(np.sin(z), z, out=np.ones_like(z), where=z != 0)


@functools.cache
def _gauss_legendre():
    """Nodes and weights on [-1, 1] of kernel_D_derivs_batch's 700-node rule."""
    return np.polynomial.legendre.leggauss(700)


def kernel_D_derivs_batch(x, lams, j_lams, mus, j_mus):
    """Vectorized kernel derivatives for mixed order batches (1-D arrays).

    Every entry takes one 700-node Gauss-Legendre rule on [0, x], checked in
    tests/test_model.py against 50-digit derivatives of kernel_D's closed form,
    and its products are summed on their own, so its value does not depend on
    the batch.  Orders above MAX_DERIV_ORDER raise OrderTooHigh."""
    lams, mus = np.asarray(lams), np.asarray(mus)
    j_lams = np.asarray(j_lams, dtype=int)
    j_mus = np.asarray(j_mus, dtype=int)
    out = np.zeros(lams.shape, dtype=np.result_type(lams, mus, float))
    if lams.size == 0:
        return out
    if max(j_lams.max(), j_mus.max()) > MAX_DERIV_ORDER:
        raise OrderTooHigh("kernel derivative order above the multiplicity cap")
    if x == 0.0:
        return out
    t_ref, w_ref = _gauss_legendre()
    half = 0.5 * x
    t, w = half + half * t_ref, half * w_ref
    for jl, jm in np.unique(np.stack([j_lams, j_mus]), axis=1).T:
        e = np.flatnonzero((j_lams == jl) & (j_mus == jm))
        f = phi_model(int(jl), t, lams[e, None]) * phi_model(int(jm), t, mus[e, None])
        out[e] = (f * w).sum(axis=1)
    return out


def _kernel_D_recurrence(tl, dtl, tm, dtm, inv, j_lams, j_mus):
    """The kernel derivatives of kernel_D_derivs_batch from the Taylor
    coefficients of (lam - mu) D = phi(lam) phi'(mu) - phi'(lam) phi(mu):
    (lam - mu) D_{a,b} = phi_a(lam) phi'_b(mu) - phi'_a(lam) phi_b(mu) - D_{a-1,b} + D_{a,b-1}.
    tl, dtl hold phi_model, phi_model_dx by order (axis 0) at each entry's
    lam, tm, dtm at its mu; inv = 1/(lam - mu)."""
    # D[a + 1, b + 1] is D_{a,b}; the zero first row and column are D_{-1,b}, D_{a,-1}
    n_a, n_b = int(j_lams.max(initial=0)) + 1, int(j_mus.max(initial=0)) + 1
    D = np.zeros((n_a + 1, n_b + 1, len(inv)), dtype=np.result_type(tl, dtl, tm, dtm, inv))
    for a, b in np.ndindex(n_a, n_b):
        D[a + 1, b + 1] = (tl[a] * dtm[b] - dtl[a] * tm[b] - D[a, b + 1] + D[a + 1, b]) * inv
    return D[j_lams + 1, j_mus + 1, np.arange(len(inv))]


_SERIES_W = {ab: np.outer(*_C_COEF[list(ab)]) / (2 * (np.indices((16, 16)).sum(0) + sum(ab)) + 1)
             for ab in np.ndindex(MAX_DERIV_ORDER + 1, MAX_DERIV_ORDER + 1)}


def _kernel_D_series(x, lams, j_lams, mus, j_mus):
    """The kernel derivatives of kernel_D_derivs_batch from the double series
    x^(2a+2b+1) sum_{p,q} A_a[p] A_b[q] u^p v^q / (2(p+q+a+b) + 1) of the
    integral of the towers, u = lam x^2, v = mu x^2, A_j the c_j coefficients."""
    U, V = _series_powers(lams * x * x), _series_powers(mus * x * x)
    out = np.empty(len(lams), dtype=np.result_type(U, V))
    for a, b in set(zip(j_lams.tolist(), j_mus.tolist())):
        e = np.flatnonzero((j_lams == a) & (j_mus == b))
        out[e] = x ** (2 * (a + b) + 1) * np.sum(U[:, e] * (_SERIES_W[a, b] @ V[:, e]), axis=0)
    return out
