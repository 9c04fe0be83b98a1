"""Reconstruction of (sigma, r1, r2) from the solved main-equation table.

All contour integrals are evaluated as finite residue sums over the poles of
the truncated Weyl difference; trapezoid quadrature on the circle contour is
kept alongside as a cross-check (the two must agree to quadrature accuracy).
Every pole with flattened index <= K contributes exactly once, whether it
falls inside the contour (residue block, with derivative terms for clusters)
or beyond it (simple tail block).

The sigma series converges in the mean-square sense only: at x = pi it has a
measure-zero defect (it tends to sigma(pi) + 2 d, d the top coefficient of the
padded r2).  The grid therefore gets an endpoint repair by extrapolation; the
raw series value at pi is retained because the r2 formula's quasi-derivative
is self-consistent only with it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import lam_batch, phi_model, phi_model_dx, sqrt_lambda
from .errors import ContourThroughPole, FitResidualTooLarge, UnsupportedCase
from .maineq import MainEquationContext, PhiTable, solve_at_x, solve_on_grid
from .model import ModelData
from .problem import Polynomial
from .spectral import SpectralData, _principal_part_sum, detect_M1

PI = np.pi
CONTOUR_MARGIN = 2      # contour indices added past the last one that must be inside
FIT_RESID_TOL = 1e-3    # relative residual above which an r1/r2 fit is rejected
QUAD_NODES = 256        # trapezoid nodes of the contour quadrature cross-checks


@dataclass(frozen=True)
class ContourSpec:
    """Circle |lambda| = (N + 1/2)^2 holding all clusters and all low indices."""

    N: int

    @property
    def radius(self) -> float:
        return (self.N + 0.5) ** 2


def choose_contour(ctx: MainEquationContext) -> ContourSpec:
    """Smallest contour index covering the context's multiplicities, the low
    cluster zone and the dominant-xi indices, plus CONTOUR_MARGIN."""
    K, M1, xi = ctx.K, ctx.md.M1, ctx.xi
    need = {M1 + 1}
    for fam_sd in (ctx.sd, ctx.mds):
        for h, m in zip(fam_sd.heads, fam_sd.sizes):
            if m > 1:
                need.add(h + m)  # 1-based end of the cluster
    big = np.flatnonzero(xi > 0.5 * np.max(xi)) + 1 if np.max(xi) > 0 else []
    for n in big:
        need.add(int(n))
    n_max = max(need)
    N = max(1, n_max - M1 - 1) + CONTOUR_MARGIN
    N = min(N, K - 2)
    cont = ContourSpec(N)
    lams = np.concatenate([ctx.sd.lam, ctx.mds.lam])
    for _ in range(4):
        if np.min(np.abs(np.abs(lams) - cont.radius)) > 1e-6 * cont.radius:
            return cont
        if cont.N + 1 > K - 2:
            break
        cont = ContourSpec(cont.N + 1)
    raise ContourThroughPole("no admissible contour index below K - 2")


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
    phi0, phi1, dphi0, dphi1 = _phi_values_at(table, x)
    B0, B1 = table.ctx.kernel_columns(x, lam_s)
    # dB[i][s, k] = phi_model(x, lam_s) * G_i[k]
    G = table.ctx.g_vectors(x)
    f0 = phi_model(0, x, lam_s)
    return shaped(phi_model_dx(0, x, lam_s)
                  - (f0 * (G[0] @ phi0) + B0 @ dphi0 - f0 * (G[1] @ phi1) - B1 @ dphi1))


# ---------------------------------------------------------------------------
# The residue sum shared by the reconstruction formulas.


_BOTH = ((0, 1.0), (1, -1.0))   # (family, sign): data poles minus model poles
_DATA = ((0, 1.0),)


def _residue_sum(ctx: MainEquationContext, fams, tower, x, values, lam=None,
                 offset: float = 0.0, radius: float = np.inf):
    """The residue sum behind every reconstruction formula.

    For each cluster (head h, size m, pole lam_h, weights a_j) of the given
    (family, sign) pairs with |lam_h| < radius, the principal-part
    coefficients are

        c_t = sum_{j>=t} a_j sum_{p<=j-t} tower(p, x, lam_h) values[h+j-t-p, fam],

    with tower phi_model or phi_model_dx and values carrying the family on
    axis 1.  Without lam the result is sum sign (c_0 - offset a_0), the
    residues against hat M; with lam it is
    sum sign sum_t c_t / (lam - lam_h)^(t+1), the residues against
    M(mu) / (lam - mu).
    """
    total = 0j
    for fam, sign in fams:
        fam_sd = ctx.fams[fam]["sd"]
        for h, m in zip(fam_sd.heads, fam_sd.sizes):
            lam_h, alphas = complex(fam_sd.lam[h]), fam_sd.alpha[h:h + m]
            if abs(lam_h) >= radius:
                continue
            phit = [tower(p, x, lam_h) for p in range(m)]
            vals = values[h:h + m, fam]
            for t in range(m if lam is not None else 1):
                c = 0j
                for j in range(t, m):
                    c += alphas[j] * sum(phit[p] * vals[j - t - p]
                                         for p in range(j - t + 1))
                if lam is None:
                    total += sign * (c - offset * alphas[0])
                else:
                    total += sign * c / (lam - lam_h) ** (t + 1)
    return total


@dataclass
class SigmaResult:
    x_grid: np.ndarray
    values: np.ndarray          # repaired grid samples
    raw: np.ndarray             # plain series values
    sigma_pi_raw: complex       # series value at pi (used by the r2 formula)
    sigma_pi: complex           # repaired endpoint value
    defect: complex             # raw - extrapolated at pi


def reconstruct_sigma(table: PhiTable) -> SigmaResult:
    """Residue form of the sigma series over all flattened poles n <= K."""
    K = table.K
    xs = table.x_grid
    n_x = len(xs)
    raw = -2.0 * _residue_sum(table.ctx, _BOTH, phi_model, xs, table.phi, offset=0.5)

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
    return SigmaResult(x_grid=xs, values=values, raw=raw, sigma_pi_raw=complex(raw[-1]),
                       sigma_pi=complex(values[-1]), defect=complex(raw[-1] - values[-1]))


# ---------------------------------------------------------------------------
# r1 and r2.


def _g_factor(ctx: MainEquationContext, lam_s: np.ndarray) -> np.ndarray:
    """prod_{k<=M1} (lam - lam_k0) * prod_{M1<k<=K} (lam - lam_k0)/(lam - lam_k1)."""
    M1 = ctx.md.M1
    lam0 = ctx.fams[0]["lam_pt"]
    lam1 = ctx.fams[1]["lam_pt"]
    out = np.ones_like(lam_s)
    for k in range(ctx.K):
        out = out * (lam_s - lam0[k])
        if k >= M1:
            out = out / (lam_s - lam1[k])
    return out


def _bc_constant_sum(table: PhiTable) -> complex:
    """S2 = sum over both families of alpha-weighted (phit phiK - 1) at pi.

    The boundary constant of the Robin case is b0 = -S2."""
    return complex(_residue_sum(table.ctx, _BOTH, phi_model, PI, table.phi[:, :, -1],
                                offset=1.0))


def default_lambda_samples(ctx: MainEquationContext, contour: ContourSpec,
                           count: int = 16) -> np.ndarray:
    """Chebyshev nodes on a real interval past the contour, lifted off the
    real axis; kept at distance >= 0.5 from every pole and outside the circle."""
    lams = np.concatenate([ctx.fams[0]["lam_pt"], ctx.fams[1]["lam_pt"]])
    inside = lams[np.abs(lams) < contour.radius]
    lo = max((np.max(np.abs(inside)) if len(inside) else 0.0) + 5.0,
             contour.radius + 2.0)
    hi = lo + 20.0
    count = max(count, 2 * ctx.md.M1 + 2)
    t = np.cos(PI * (np.arange(count) + 0.5) / count)
    pts = (lo + hi) / 2 + (hi - lo) / 2 * t + 0.5j
    for _ in range(4):
        dmin = np.min(np.abs(pts[:, None] - lams[None, :]), axis=1)
        if np.all(dmin >= 0.5):
            break
        pts = pts + 0.35j
    return pts


def _fit_r(name: str, table: PhiTable, contour: ContourSpec, lam_samples, expression):
    """Degree-M1 least-squares fit of _g_factor(lam) * expression(lam) at
    lam_samples (default_lambda_samples when None), in a shifted-scaled basis.

    Returns (ascending coefficients, relative residual); a residual above
    FIT_RESID_TOL raises FitResidualTooLarge."""
    ctx = table.ctx
    if lam_samples is None:
        lam_samples = default_lambda_samples(ctx, contour)
    lam_s = np.asarray(lam_samples, dtype=complex)
    vals = _g_factor(ctx, lam_s) * expression(lam_s)
    degree = ctx.md.M1
    mid = np.mean(lam_s.real)
    half = max(np.max(np.abs(lam_s.real - mid)), 1.0)
    t = (lam_s - mid) / half
    V = np.vander(t, degree + 1, increasing=True)
    c_t, *_ = np.linalg.lstsq(V, vals, rcond=None)
    # the floor keeps identically-zero expressions (model data) from tripping
    # the relative residual
    resid = float(np.max(np.abs(V @ c_t - vals)) / max(np.max(np.abs(vals)), 1e-9))
    if resid > FIT_RESID_TOL:
        raise FitResidualTooLarge(f"{name} fit residual {resid:.3g}")
    # convert sum c_t[k] ((lam - mid)/half)^k to ascending powers of lam
    poly = np.zeros(degree + 1, dtype=complex)
    base = np.array([1.0], dtype=complex)
    for k in range(degree + 1):
        poly[: k + 1] += c_t[k] * base
        base = np.convolve(base, np.array([-mid / half, 1.0 / half], dtype=complex))
    return poly, resid


def _quasi_pi(table: PhiTable, sigma_pi_raw: complex) -> np.ndarray:
    """Quasi-derivative phi' - sigma phi at pi of the data family."""
    return table.dphi[:, 0, -1] - sigma_pi_raw * table.phi[:, 0, -1]


def reconstruct_r1(table: PhiTable, contour: ContourSpec,
                   lam_samples: np.ndarray | None = None):
    """Monic degree-M1 polynomial from the product-times-sum expression
    1 - sum alpha phit'(pi) phiK(pi) / (lam - lam_k0), with cluster derivative
    terms, fitted and checked by _fit_r."""
    coeffs, resid = _fit_r("r1", table, contour, lam_samples, lambda lam: 1.0 - _residue_sum(
        table.ctx, _DATA, phi_model_dx, PI, table.phi[:, :, -1], lam=lam))
    lead = coeffs[-1]
    diag = {"fit_residual": resid, "leading_coeff_raw": complex(lead)}
    return Polynomial(coeffs / lead), diag


def reconstruct_r2(table: PhiTable, contour: ContourSpec,
                   sigma: SigmaResult | None = None,
                   lam_samples: np.ndarray | None = None):
    """Degree <= M1 polynomial, fitted and checked by _fit_r; the
    quasi-derivative at pi uses the raw series value of sigma^K(pi)
    (reconstruct_sigma(table) when sigma is None)."""
    if sigma is None:
        sigma = reconstruct_sigma(table)
    quasi = _quasi_pi(table, sigma.sigma_pi_raw)
    S2 = _bc_constant_sum(table)
    coeffs, resid = _fit_r("r2", table, contour, lam_samples, lambda lam: _residue_sum(
        table.ctx, _DATA, phi_model_dx, PI, quasi[:, None], lam=lam) - S2)
    diag = {"fit_residual": resid, "bc_constant": complex(-S2)}
    return Polynomial(coeffs), diag


# ---------------------------------------------------------------------------
# Contour-term cross-checks (residue sums versus trapezoid quadrature).


def weyl_difference_truncated(ctx: MainEquationContext, mu: np.ndarray) -> np.ndarray:
    """hat M^K(mu): the K-truncated data partial fraction minus the model one."""
    return _principal_part_sum(np.asarray(mu, dtype=complex), ((ctx.sd, 1.0), (ctx.mds, -1.0)))


def weyl_model(mu):
    """Closed form cos(rho pi) / (rho sin(rho pi)) of the reference problem."""
    mu = np.asarray(mu, dtype=complex)
    rho = np.asarray(sqrt_lambda(mu))
    num = np.cos(rho * PI)
    den = rho * np.sin(rho * PI)
    small = np.abs(den) < 1e-300
    return num / np.where(small, 1e-300, den)


def sigma_contour_residue(table: PhiTable, contour: ContourSpec, x: float) -> complex:
    """Residue evaluation of -(1/pi i) oint (phit phiK - 1/2) hatM dmu over
    the poles inside the contour; x must be a grid node."""
    ix = _node(table, x)
    if ix is None:
        raise ValueError(f"x={x} is not a grid node")
    total = _residue_sum(table.ctx, _BOTH, phi_model, x, table.phi[:, :, ix], offset=0.5,
                         radius=contour.radius)
    return complex(-2.0 * total)


def _circle_nodes(contour: ContourSpec) -> np.ndarray:
    """QUAD_NODES midpoint nodes of the trapezoid rule on the contour circle."""
    th = np.exp(2j * PI * (np.arange(QUAD_NODES) + 0.5) / QUAD_NODES)
    return contour.radius * th


def sigma_contour_quadrature(table: PhiTable, contour: ContourSpec, x: float) -> complex:
    """sigma_contour_residue's integral by the trapezoid rule on the circle."""
    mu = _circle_nodes(contour)
    phiK = phi_K_of_lambda(table, x, mu)
    integrand = (phi_model(0, x, mu) * phiK - 0.5) * weyl_difference_truncated(table.ctx, mu)
    return complex(-2.0 * np.mean(integrand * mu))


def r1_contour_residue(table: PhiTable, contour: ContourSpec, lam: complex) -> complex:
    """-(1/2 pi i) oint phit'(pi) phiK(pi) M(mu) / (lam - mu) dmu as residues."""
    total = _residue_sum(table.ctx, _DATA, phi_model_dx, PI, table.phi[:, :, -1], lam=lam,
                         radius=contour.radius)
    return complex(-total)


def r1_contour_quadrature(table: PhiTable, contour: ContourSpec, lam: complex) -> complex:
    """r1_contour_residue's integral by the trapezoid rule on the circle."""
    mu = _circle_nodes(contour)
    phiK = phi_K_of_lambda(table, PI, mu)
    Mmu = weyl_model(mu) + weyl_difference_truncated(table.ctx, mu)
    integrand = phi_model_dx(0, PI, mu) * phiK * Mmu / (lam - mu)
    return complex(-np.mean(integrand * mu))


def r2_contour_residue(table: PhiTable, contour: ContourSpec, lam: complex,
                       sigma_pi_raw: complex):
    """The two r2 contour terms as residue sums: (quasi-derivative integral
    against M, boundary integral against hatM)."""
    t_quasi = _residue_sum(table.ctx, _DATA, phi_model_dx, PI,
                           _quasi_pi(table, sigma_pi_raw)[:, None], lam=lam,
                           radius=contour.radius)
    t_bc = _residue_sum(table.ctx, _BOTH, phi_model, PI, table.phi[:, :, -1], offset=1.0,
                        radius=contour.radius)
    return complex(t_quasi), complex(-t_bc)


def r2_contour_quadrature(table: PhiTable, contour: ContourSpec, lam: complex,
                          sigma_pi_raw: complex):
    """r2_contour_residue's two integrals by the trapezoid rule on the circle."""
    mu = _circle_nodes(contour)
    phiK = phi_K_of_lambda(table, PI, mu)
    dphiK = dphi_K_dx(table, PI, mu)
    quasi = dphiK - sigma_pi_raw * phiK
    hatM = weyl_difference_truncated(table.ctx, mu)
    Mmu = weyl_model(mu) + hatM
    t_quasi = np.mean(phi_model_dx(0, PI, mu) * quasi * Mmu / (lam - mu) * mu)
    t_bc = -np.mean((phi_model(0, PI, mu) * phiK - 1.0) * hatM * mu)
    return complex(t_quasi), complex(t_bc)


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
    sigma_result: SigmaResult
    diagnostics: dict


def invert_spectral_data(sd: SpectralData, K: int | None = None, n_x: int = 512,
                         N: int | None = None,
                         m1: int | None = None) -> ReconstructionResult:
    """Steps 3..10 of the reconstruction: detect M1, build the model problem,
    solve the main equation on the grid, apply the reconstruction formulas."""
    K = sd.K if K is None else K
    sd = sd.truncated(K)
    case = sd.case or "M1=M2"
    if m1 is None:
        m1, case = (sd.m1, case) if sd.m1 is not None else detect_M1(sd)
    if case != "M1=M2":
        raise UnsupportedCase("reconstruction implements the deg(r1) >= deg(r2) case only")
    md = ModelData(m1)
    ctx = MainEquationContext(sd, md, K)
    table = solve_on_grid(sd, md, K, n_x=n_x, ctx=ctx)
    contour = ContourSpec(N) if N is not None else choose_contour(ctx)
    sigma = reconstruct_sigma(table)
    r1, diag1 = reconstruct_r1(table, contour)
    r2, diag2 = reconstruct_r2(table, contour, sigma=sigma)
    diagnostics = {
        "cond_max": float(np.max(table.cond)),
        "cond_median": float(np.median(table.cond)),
        "xi_tail_norm": float(np.sqrt(np.sum(ctx.xi[K // 2:] ** 2))),
        "endpoint_defect": sigma.defect,
        "r1_fit_residual": diag1["fit_residual"],
        "r2_fit_residual": diag2["fit_residual"],
        "bc_constant": diag2["bc_constant"],
        "N": contour.N,
        "K": K,
    }
    return ReconstructionResult(
        x_grid=table.x_grid, sigma=sigma.values, r1=r1, r2=r2,
        N=contour.N, K=K, m1=m1, sigma_result=sigma, diagnostics=diagnostics)
