"""Reconstruction of (sigma, r1, r2) from the solved main-equation table.

All contour integrals are evaluated as finite residue sums over the poles of
the truncated Weyl difference.  Every pole with flattened index <= K
contributes exactly once, a cluster with its derivative terms: each sum is
the pairing W[..., :K] @ v_0 - W[..., K:] @ v_1 of the per-pole weights
MainEquationContext.residue_weights builds from the main equation's own
column terms with the table values v_i of family i, so no sum needs the
circle of choose_contour, which only places the r1/r2 fit samples.  Real data
gives real sigma, r1 and r2.  tests/contour_oracle.py checks the weights
against a per-cluster loop and the sums against quadrature on the circle.

The sigma series converges in the mean-square sense only: at x = pi it has a
measure-zero defect (it tends to sigma(pi) + 2 d, d the top coefficient of the
padded r2).  The grid therefore gets an endpoint repair by extrapolation; the
raw series value at pi is retained because the r2 formula's quasi-derivative
is self-consistent only with it: reconstruct_r2 reads that value, and the
residue weights at pi, from the table's last node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import lam_batch, phi_model, phi_model_dx
from .errors import FitResidualTooLarge, MalformedInput, UnsupportedCase
from .maineq import MainEquationContext, PhiTable, solve_at_x, solve_on_grid
from .model import ModelData
from .problem import Polynomial
from .spectral import SpectralData, detect_M1

PI = np.pi
CONTOUR_MARGIN = 2      # contour indices added past the last one that must be inside
FIT_RESID_TOL = 1e-3    # relative residual above which an r1/r2 fit is rejected


@dataclass(frozen=True)
class ContourSpec:
    """Circle |lambda| = (N + 1/2)^2 holding all clusters and all low indices."""

    N: int

    @property
    def radius(self) -> float:
        return (self.N + 0.5) ** 2


def choose_contour(ctx: MainEquationContext) -> ContourSpec:
    """Smallest contour index covering the context's multiplicities, the low
    cluster zone and the dominant-xi indices, plus CONTOUR_MARGIN (at most
    K - 2).  The circle only places the fit samples and is reported as N."""
    K, M1, xi = ctx.K, ctx.mds.m1, ctx.xi
    need = {M1 + 1}
    for fam_sd in (ctx.sd, ctx.mds):
        for h, m in zip(fam_sd.heads, fam_sd.sizes):
            if m > 1:
                need.add(h + m)  # 1-based end of the cluster
    big = np.flatnonzero(xi > 0.5 * np.max(xi)) + 1 if np.max(xi) > 0 else []
    for n in big:
        need.add(int(n))
    N = max(1, max(need) - M1 - 1) + CONTOUR_MARGIN
    return ContourSpec(min(N, K - 2))


# ---------------------------------------------------------------------------
# Series evaluation of phi^K(x, lam) at arbitrary lam.


def _node(table: PhiTable, x: float):
    """Index of the grid node at x (within 1e-12), or None off the grid."""
    n_x = len(table.x_grid)
    ix = int(round(x / PI * (n_x - 1)))
    return ix if 0 <= ix < n_x and abs(table.x_grid[ix] - x) < 1e-12 else None


def _phi_values_at(table: PhiTable, x: float):
    """Table columns at a grid node, or a fresh per-x solve off the grid."""
    ix = _node(table, x)
    if ix is not None:
        return (table.phi[:, 0, ix], table.phi[:, 1, ix],
                table.dphi[:, 0, ix], table.dphi[:, 1, ix])
    p0, p1, d0, d1, _ = solve_at_x(table.ctx, x)
    return p0, p1, d0, d1


def phi_K_of_lambda(table: PhiTable, x: float, lam):
    """phi^K(x, lam) by the finite series around the model solution."""
    lam_s, shaped = lam_batch(lam)
    phi0, phi1, _, _ = _phi_values_at(table, x)
    B0, B1 = table.ctx.kernel_columns(x, lam_s)
    return shaped(phi_model(0, x, lam_s) - (B0 @ phi0 - B1 @ phi1))


def dphi_K_dx(table: PhiTable, x: float, lam):
    """Exact x-derivative of phi^K(x, lam): differentiates both the kernel
    coefficients and the table values, no numerical differencing."""
    lam_s, shaped = lam_batch(lam)
    ctx = table.ctx
    phi0, phi1, dphi0, dphi1 = _phi_values_at(table, x)
    B0, B1 = ctx.kernel_columns(x, lam_s)
    # dB_i[s, k] = phi_model(x, lam_s) W[iK + k], W the residue weights at x
    dB_phi = phi_model(0, x, lam_s) * _pairing(ctx, ctx.residue_weights(x),
                                               np.column_stack((phi0, phi1)))
    return shaped(phi_model_dx(0, x, lam_s) - (dB_phi + B0 @ dphi0 - B1 @ dphi1))


def _pairing(ctx: MainEquationContext, W, values, offset: float = 0.0):
    """Residue sum W[:K] . values[:, 0] - W[K:] . values[:, 1] of the weights
    W = ctx.residue_weights(x) and values (K, 2), nodes on a leading axis of
    both, less offset times the head-alpha residues: data minus model."""
    K, head, W = ctx.K, np.where(ctx.order == 0, ctx.alpha, 0), W[..., None, :]
    return ((W[..., :K] @ values[..., 0:1] - W[..., K:] @ values[..., 1:2])[..., 0, 0]
            - offset * (head[:K].sum() - head[K:].sum()))


@dataclass
class SigmaResult:
    values: np.ndarray          # repaired grid samples
    raw: np.ndarray             # plain series values; raw[-1] - values[-1] is the defect


def reconstruct_sigma(table: PhiTable) -> SigmaResult:
    """Residue form of the sigma series over all flattened poles n <= K."""
    K, ctx, xs = table.K, table.ctx, table.x_grid
    n_x = len(xs)
    raw = -2.0 * _pairing(ctx, table.weights, table.phi.transpose(2, 0, 1), 0.5)

    # endpoint repair: the series limit at pi carries a 2*d offset (d the top
    # padded coefficient of r2); extrapolate over the truncation bump
    w = int(np.ceil(2.5 * (n_x - 1) / K)) + 2
    w = min(max(w, 4), n_x // 4)
    fit_lo = max(n_x - 3 * w, 0)
    fit_hi = n_x - w
    xs_fit = xs[fit_lo:fit_hi]
    coef = np.polyfit(xs_fit - xs_fit[0], raw[fit_lo:fit_hi], 2)
    extrap = np.polyval(coef, xs[fit_hi:] - xs_fit[0])
    values = raw.copy()
    values[fit_hi:] = extrap
    return SigmaResult(values=values, raw=raw)


# ---------------------------------------------------------------------------
# r1 and r2.


def _g_factor(ctx: MainEquationContext, lam_s: np.ndarray) -> np.ndarray:
    """prod_{k<=M1} (lam - lam_k0) * prod_{M1<k<=K} (lam - lam_k0)/(lam - lam_k1)."""
    M1 = ctx.mds.m1
    lam0, lam1 = ctx.lam[:ctx.K], ctx.lam[ctx.K:]
    out = np.ones_like(lam_s)
    for k in range(ctx.K):
        out = out * (lam_s - lam0[k])
        if k >= M1:
            out = out / (lam_s - lam1[k])
    return out


def default_lambda_samples(ctx: MainEquationContext, contour: ContourSpec,
                           count: int = 16) -> np.ndarray:
    """Chebyshev nodes on a real interval past the contour, lifted off the
    real axis; kept at distance >= 0.5 from every pole and outside the circle."""
    inside = ctx.lam[np.abs(ctx.lam) < contour.radius]
    lo = max((np.max(np.abs(inside)) if len(inside) else 0.0) + 5.0,
             contour.radius + 2.0)
    hi = lo + 20.0
    count = max(count, 2 * ctx.mds.m1 + 2)
    t = np.cos(PI * (np.arange(count) + 0.5) / count)
    pts = (lo + hi) / 2 + (hi - lo) / 2 * t + 0.5j
    for _ in range(4):
        dmin = np.min(np.abs(pts[:, None] - ctx.lam[None, :]), axis=1)
        if np.all(dmin >= 0.5):
            break
        pts = pts + 0.35j
    return pts


def _fit_r(name: str, table: PhiTable, contour: ContourSpec, lam_samples, expression):
    """Degree-M1 least-squares fit of _g_factor(lam) * expression(lam) at
    lam_samples (default_lambda_samples when None).

    Returns (ascending coefficients, relative residual); a residual above
    FIT_RESID_TOL raises FitResidualTooLarge.  Real data (ctx.dtype float64)
    has a conjugate-symmetric expression, so its coefficients are real."""
    ctx = table.ctx
    if lam_samples is None:
        lam_samples = default_lambda_samples(ctx, contour)
    lam_s = np.asarray(lam_samples, dtype=complex)
    vals = _g_factor(ctx, lam_s) * expression(lam_s)
    fit = np.polynomial.Polynomial.fit(lam_s, vals, ctx.mds.m1)
    # the floor keeps identically-zero expressions (model data) from tripping
    # the relative residual
    resid = float(np.max(np.abs(fit(lam_s) - vals)) / max(np.max(np.abs(vals)), 1e-9))
    if resid > FIT_RESID_TOL:
        raise FitResidualTooLarge(f"{name} fit residual {resid:.3g}")
    coef = fit.convert().coef
    return (coef.real if ctx.dtype == float else coef), resid


def _quasi_pi(table: PhiTable, sigma_pi_raw: complex) -> np.ndarray:
    """Quasi-derivative phi' - sigma phi at pi of the data family."""
    return table.dphi[:, 0, -1] - sigma_pi_raw * table.phi[:, 0, -1]


def reconstruct_r1(table: PhiTable, contour: ContourSpec,
                   lam_samples: np.ndarray | None = None):
    """Monic degree-M1 polynomial from the product-times-sum expression
    1 - sum alpha phit'(pi) phiK(pi) / (lam - lam_k0), with cluster derivative
    terms, fitted and checked by _fit_r."""
    coeffs, resid = _fit_r("r1", table, contour, lam_samples, lambda lam: 1.0 - (
        table.ctx.residue_weights(PI, lam, tower=1)[..., :table.K] @ table.phi[:, 0, -1]))
    return Polynomial(coeffs / coeffs[-1]), {"fit_residual": resid}


def reconstruct_r2(table: PhiTable, contour: ContourSpec):
    """Degree <= M1 polynomial, fitted and checked by _fit_r; the
    quasi-derivative at pi uses the raw series value sigma^K(pi), which the
    table's last node gives as reconstruct_sigma's raw[-1]."""
    ctx, W, phi_pi = table.ctx, table.weights[-1], table.phi[:, :, -1]
    quasi = _quasi_pi(table, complex(-2.0 * _pairing(ctx, W, phi_pi, 0.5)))
    # S2, the residues of (phit phiK - 1) hatM at pi; the Robin boundary constant is -S2
    S2 = complex(_pairing(ctx, W, phi_pi, 1.0))
    coeffs, resid = _fit_r("r2", table, contour, None, lambda lam: ctx.residue_weights(
        PI, lam, tower=1)[..., :ctx.K] @ quasi - S2)
    diag = {"fit_residual": resid, "bc_constant": complex(-S2)}
    return Polynomial(coeffs), diag


# ---------------------------------------------------------------------------
# Full inversion pipeline.


@dataclass
class ReconstructionResult:
    x_grid: np.ndarray
    sigma: np.ndarray           # repaired grid samples
    r1: Polynomial
    r2: Polynomial
    N: int
    K: int
    m1: int
    diagnostics: dict


def invert_spectral_data(sd: SpectralData, K: int | None = None,
                         n_x: int = 512) -> ReconstructionResult:
    """Steps 3..10 of the reconstruction: take M1 from the data (detect it
    when the data does not carry it), build the model problem, solve the main
    equation on the grid, apply the reconstruction formulas."""
    K = sd.K if K is None else K
    sd = sd.truncated(K)
    m1, case = (sd.m1, sd.case or "M1=M2") if sd.m1 is not None else detect_M1(sd)
    if case != "M1=M2":
        raise UnsupportedCase("reconstruction implements the deg(r1) >= deg(r2) case only")
    if K < m1 + 2:
        raise MalformedInput("K must be at least M1 + 2")
    md = ModelData(m1)
    ctx = MainEquationContext(sd, md, K)
    table = solve_on_grid(sd, md, K, n_x=n_x, ctx=ctx)
    contour = choose_contour(ctx)
    sigma = reconstruct_sigma(table)
    r1, diag1 = reconstruct_r1(table, contour)
    r2, diag2 = reconstruct_r2(table, contour)
    diagnostics = {
        "cond_max": float(np.max(table.cond)),
        "cond_median": float(np.median(table.cond)),
        "xi_tail_norm": float(np.sqrt(np.sum(ctx.xi[K // 2:] ** 2))),
        "endpoint_defect": complex(sigma.raw[-1] - sigma.values[-1]),
        "r1_fit_residual": diag1["fit_residual"],
        "r2_fit_residual": diag2["fit_residual"],
        "bc_constant": diag2["bc_constant"],
        "N": contour.N,
        "K": K,
    }
    return ReconstructionResult(
        x_grid=table.x_grid, sigma=sigma.values, r1=r1, r2=r2,
        N=contour.N, K=K, m1=m1, diagnostics=diagnostics)
