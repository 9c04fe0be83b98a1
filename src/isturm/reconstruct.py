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

from dataclasses import dataclass, field

import numpy as np

from ._util import phi_model, phi_model_dx, sqrt_lambda
from .errors import ContourThroughPole, FitResidualTooLarge, UnsupportedCase
from .maineq import MainEquationContext, PhiTable, solve_on_grid
from .model import ModelData
from .problem import Polynomial
from .spectral import SpectralData, detect_M1

PI = np.pi


@dataclass(frozen=True)
class ContourSpec:
    """Circle |lambda| = (N + 1/2)^2 holding all clusters and all low indices."""

    N: int

    @property
    def radius(self) -> float:
        return (self.N + 0.5) ** 2


def choose_contour(sd: SpectralData, md: ModelData, K: int, xi: np.ndarray,
                   margin: int = 2) -> ContourSpec:
    """Smallest contour index covering multiplicities, the low cluster zone and
    the dominant-xi indices, plus a fixed margin."""
    M1 = md.M1
    need = {M1 + 1}
    for h, m in zip(sd.heads, sd.sizes):
        if m > 1:
            need.add(h + m)  # 1-based end of the cluster
    mds = md.spectral_data(K)
    for h, m in zip(mds.heads, mds.sizes):
        if m > 1:
            need.add(h + m)
    big = np.flatnonzero(xi > 0.5 * np.max(xi)) + 1 if np.max(xi) > 0 else []
    for n in big:
        need.add(int(n))
    n_max = max(need)
    N = max(1, n_max - M1 - 1) + margin
    N = min(N, K - 2)
    cont = ContourSpec(N)
    for bump in range(4):
        lams = np.concatenate([sd.lam[:K], mds.lam])
        if np.min(np.abs(np.abs(lams) - cont.radius)) > 1e-6 * cont.radius:
            return cont
        if cont.N + 1 > K - 2:
            break
        cont = ContourSpec(cont.N + 1)
    raise ContourThroughPole("no admissible contour index below K - 2")


# ---------------------------------------------------------------------------
# Series evaluation of phi^K(x, lam) at arbitrary lam.


def _series_matrix(ctx: MainEquationContext, x: float, lam_s: np.ndarray):
    """B[i][s, k] = principal-part coefficient sums A_{k,i}(x, lam_s).

    Columns of cluster members with derivative terms come from
    ``MainEquationContext.kernel_columns``, the builder behind ``q_blocks``."""
    return ctx.kernel_columns(x, lam_s, np.zeros(len(lam_s), dtype=int))


def _phi_values_at(table: PhiTable, ctx: MainEquationContext, x: float):
    """Table columns at a grid node, or a fresh per-x solve off the grid."""
    n_x = len(table.x_grid)
    ix = int(round(x / PI * (n_x - 1)))
    if 0 <= ix < n_x and abs(table.x_grid[ix] - x) < 1e-12:
        return (table.phi[:, 0, ix], table.phi[:, 1, ix],
                table.dphi[:, 0, ix], table.dphi[:, 1, ix])
    from .maineq import solve_at_x
    p0, p1, d0, d1, _ = solve_at_x(ctx, x)
    return p0, p1, d0, d1


def phi_K_of_lambda(table: PhiTable, sd: SpectralData, md: ModelData,
                    x: float, lam, ctx: MainEquationContext | None = None):
    """phi^K(x, lam) by the finite series around the model solution."""
    if ctx is None:
        ctx = MainEquationContext(sd, md, table.K)
    lam_s = np.atleast_1d(np.asarray(lam, dtype=complex))
    phi0, phi1, _, _ = _phi_values_at(table, ctx, x)
    B0, B1 = _series_matrix(ctx, x, lam_s)
    out = phi_model(0, x, lam_s) - (B0 @ phi0 - B1 @ phi1)
    if np.ndim(lam) == 0:
        return complex(out[0])
    return out


def dphi_K_dx(table: PhiTable, sd: SpectralData, md: ModelData,
              x: float, lam, ctx: MainEquationContext | None = None):
    """Exact x-derivative of phi^K(x, lam): differentiates both the kernel
    coefficients and the table values, no numerical differencing."""
    if ctx is None:
        ctx = MainEquationContext(sd, md, table.K)
    lam_s = np.atleast_1d(np.asarray(lam, dtype=complex))
    phi0, phi1, dphi0, dphi1 = _phi_values_at(table, ctx, x)
    B0, B1 = _series_matrix(ctx, x, lam_s)
    # dB[i][s, k] = phi_model(x, lam_s) * G_i[k]
    G = ctx.g_vectors(x)
    f0 = phi_model(0, x, lam_s)
    out = phi_model_dx(0, x, lam_s) \
        - (f0 * (G[0] @ phi0) + B0 @ dphi0 - f0 * (G[1] @ phi1) - B1 @ dphi1)
    if np.ndim(lam) == 0:
        return complex(out[0])
    return out


def _grid_index(table: PhiTable, x: float) -> int:
    ix = int(round(x / PI * (len(table.x_grid) - 1)))
    if not np.isclose(table.x_grid[ix], x, atol=1e-12):
        raise ValueError(f"x={x} is not a grid node")
    return ix


# ---------------------------------------------------------------------------
# Cluster helpers shared by the reconstruction formulas.


def _clusters(ctx: MainEquationContext, fam: int):
    """(head, size, lam, alphas) per cluster of the chosen family."""
    fam_sd = ctx.fams[fam]["sd"]
    return [(h, m, complex(fam_sd.lam[h]), fam_sd.alpha[h:h + m])
            for h, m in zip(fam_sd.heads, fam_sd.sizes)]


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
        for h, m, lam_h, alphas in _clusters(ctx, fam):
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
    diagnostics: dict = field(default_factory=dict)


def reconstruct_sigma(table: PhiTable, sd: SpectralData, md: ModelData,
                      K: int | None = None,
                      ctx: MainEquationContext | None = None) -> SigmaResult:
    """Residue form of the sigma series over all flattened poles n <= K."""
    if ctx is None:
        ctx = MainEquationContext(sd, md, K or table.K)
    K = ctx.K
    xs = table.x_grid
    n_x = len(xs)
    raw = -2.0 * _residue_sum(ctx, _BOTH, phi_model, xs, table.phi, offset=0.5)

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
    defect = complex(raw[-1] - values[-1])
    return SigmaResult(
        x_grid=xs, values=values, raw=raw,
        sigma_pi_raw=complex(raw[-1]), sigma_pi=complex(values[-1]),
        defect=defect,
        diagnostics={"repair_points": int(n_x - fit_hi), "endpoint_defect": defect},
    )


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


def _pole_sums_r(ctx: MainEquationContext, table: PhiTable, lam_s: np.ndarray,
                 quasi_pi: np.ndarray | None):
    """The two data-pole partial-fraction sums of the r formulas.

    Returns (E_sum, S1) where E_sum(lam) = sum alpha phit' phiK / (lam - lam_k0)
    with cluster derivative terms, and S1 the same with the quasi-derivative
    values in place of phiK (None when quasi_pi is None).
    """
    E = _residue_sum(ctx, _DATA, phi_model_dx, PI, table.phi[:, :, -1], lam=lam_s)
    S1 = None if quasi_pi is None else \
        _residue_sum(ctx, _DATA, phi_model_dx, PI, quasi_pi[:, None], lam=lam_s)
    return E, S1


def _bc_constant_sum(ctx: MainEquationContext, table: PhiTable) -> complex:
    """S2 = sum over both families of alpha-weighted (phit phiK - 1) at pi.

    The boundary constant of the Robin case is b0 = -S2."""
    return complex(_residue_sum(ctx, _BOTH, phi_model, PI, table.phi[:, :, -1],
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


def _fit_poly(lam_s: np.ndarray, vals: np.ndarray, degree: int):
    """Least-squares polynomial fit in a shifted-scaled basis; returns
    (ascending coefficients, relative residual)."""
    mid = np.mean(lam_s.real)
    half = max(np.max(np.abs(lam_s.real - mid)), 1.0)
    t = (lam_s - mid) / half
    V = np.vander(t, degree + 1, increasing=True)
    c_t, *_ = np.linalg.lstsq(V, vals, rcond=None)
    # the floor keeps identically-zero expressions (model data) from tripping
    # the relative residual
    resid = np.max(np.abs(V @ c_t - vals)) / max(np.max(np.abs(vals)), 1e-9)
    # convert sum c_t[k] ((lam - mid)/half)^k to ascending powers of lam
    poly = np.zeros(degree + 1, dtype=complex)
    base = np.array([1.0], dtype=complex)
    for k in range(degree + 1):
        poly[: k + 1] += c_t[k] * base
        base = np.convolve(base, np.array([-mid / half, 1.0 / half], dtype=complex))
    return poly, float(resid)


def reconstruct_r1(table: PhiTable, sd: SpectralData, md: ModelData,
                   contour: ContourSpec, K: int | None = None,
                   lam_samples: np.ndarray | None = None,
                   ctx: MainEquationContext | None = None,
                   resid_tol: float = 1e-3):
    """Monic degree-M1 polynomial from the product-times-sum expression."""
    if ctx is None:
        ctx = MainEquationContext(sd, md, K or table.K)
    if lam_samples is None:
        lam_samples = default_lambda_samples(ctx, contour)
    lam_s = np.asarray(lam_samples, dtype=complex)
    E, _ = _pole_sums_r(ctx, table, lam_s, None)
    vals = _g_factor(ctx, lam_s) * (1.0 - E)
    coeffs, resid = _fit_poly(lam_s, vals, md.M1)
    if resid > resid_tol:
        raise FitResidualTooLarge(f"r1 fit residual {resid:.3g}")
    lead = coeffs[-1]
    diag = {"fit_residual": resid, "leading_coeff_raw": complex(lead)}
    return Polynomial(coeffs / lead), diag


def reconstruct_r2(table: PhiTable, sd: SpectralData, md: ModelData,
                   contour: ContourSpec, K: int | None = None,
                   lam_samples: np.ndarray | None = None,
                   sigma: SigmaResult | None = None,
                   ctx: MainEquationContext | None = None,
                   resid_tol: float = 1e-3):
    """Degree <= M1 polynomial; the quasi-derivative at pi uses the raw series
    value of sigma^K(pi)."""
    if ctx is None:
        ctx = MainEquationContext(sd, md, K or table.K)
    if sigma is None:
        sigma = reconstruct_sigma(table, sd, md, ctx=ctx)
    if lam_samples is None:
        lam_samples = default_lambda_samples(ctx, contour)
    lam_s = np.asarray(lam_samples, dtype=complex)
    ix = len(table.x_grid) - 1
    quasi_pi = table.dphi[:, 0, ix] - sigma.sigma_pi_raw * table.phi[:, 0, ix]
    _, S1 = _pole_sums_r(ctx, table, lam_s, quasi_pi)
    S2 = _bc_constant_sum(ctx, table)
    vals = _g_factor(ctx, lam_s) * (S1 - S2)
    coeffs, resid = _fit_poly(lam_s, vals, md.M1)
    if resid > resid_tol:
        raise FitResidualTooLarge(f"r2 fit residual {resid:.3g}")
    diag = {"fit_residual": resid, "bc_constant": complex(-S2)}
    return Polynomial(coeffs), diag


# ---------------------------------------------------------------------------
# Contour-term cross-checks (residue sums versus trapezoid quadrature).


def weyl_difference_truncated(ctx: MainEquationContext, mu: np.ndarray) -> np.ndarray:
    """hat M^K(mu): the K-truncated data partial fraction minus the model one."""
    mu = np.asarray(mu, dtype=complex)
    out = np.zeros_like(mu)
    for fam, sign in _BOTH:
        for h, m, lam_h, alphas in _clusters(ctx, fam):
            dl = mu - lam_h
            for j in range(m):
                if alphas[j] != 0:
                    out = out + sign * alphas[j] / dl ** (j + 1)
    return out


def weyl_model(mu):
    """Closed form cos(rho pi) / (rho sin(rho pi)) of the reference problem."""
    mu = np.asarray(mu, dtype=complex)
    rho = np.asarray(sqrt_lambda(mu))
    num = np.cos(rho * PI)
    den = rho * np.sin(rho * PI)
    small = np.abs(den) < 1e-300
    return num / np.where(small, 1e-300, den)


def sigma_contour_residue(table, sd, md, contour: ContourSpec, x: float,
                          ctx: MainEquationContext | None = None) -> complex:
    """Residue evaluation of -(1/pi i) oint (phit phiK - 1/2) hatM dmu over
    the poles inside the contour."""
    if ctx is None:
        ctx = MainEquationContext(sd, md, table.K)
    ix = _grid_index(table, x)
    total = _residue_sum(ctx, _BOTH, phi_model, x, table.phi[:, :, ix], offset=0.5,
                         radius=contour.radius)
    return complex(-2.0 * total)


def sigma_contour_quadrature(table, sd, md, contour: ContourSpec, x: float,
                             n_nodes: int = 256,
                             ctx: MainEquationContext | None = None) -> complex:
    if ctx is None:
        ctx = MainEquationContext(sd, md, table.K)
    th = np.exp(2j * PI * (np.arange(n_nodes) + 0.5) / n_nodes)
    mu = contour.radius * th
    phiK = phi_K_of_lambda(table, sd, md, x, mu, ctx=ctx)
    integrand = (phi_model(0, x, mu) * phiK - 0.5) * weyl_difference_truncated(ctx, mu)
    return complex(-2.0 * np.mean(integrand * mu))


def r1_contour_residue(table, sd, md, contour: ContourSpec, lam: complex,
                       ctx: MainEquationContext | None = None) -> complex:
    """-(1/2 pi i) oint phit'(pi) phiK(pi) M(mu) / (lam - mu) dmu as residues."""
    if ctx is None:
        ctx = MainEquationContext(sd, md, table.K)
    total = _residue_sum(ctx, _DATA, phi_model_dx, PI, table.phi[:, :, -1], lam=lam,
                         radius=contour.radius)
    return complex(-total)


def r1_contour_quadrature(table, sd, md, contour: ContourSpec, lam: complex,
                          n_nodes: int = 256,
                          ctx: MainEquationContext | None = None) -> complex:
    if ctx is None:
        ctx = MainEquationContext(sd, md, table.K)
    th = np.exp(2j * PI * (np.arange(n_nodes) + 0.5) / n_nodes)
    mu = contour.radius * th
    phiK = phi_K_of_lambda(table, sd, md, PI, mu, ctx=ctx)
    Mmu = weyl_model(mu) + weyl_difference_truncated(ctx, mu)
    integrand = phi_model_dx(0, PI, mu) * phiK * Mmu / (lam - mu)
    return complex(-np.mean(integrand * mu))


def r2_contour_residue(table, sd, md, contour: ContourSpec, lam: complex,
                       sigma_pi_raw: complex,
                       ctx: MainEquationContext | None = None):
    """The two r2 contour terms as residue sums: (quasi-derivative integral
    against M, boundary integral against hatM)."""
    if ctx is None:
        ctx = MainEquationContext(sd, md, table.K)
    ix = len(table.x_grid) - 1
    quasi = table.dphi[:, 0, ix] - sigma_pi_raw * table.phi[:, 0, ix]
    t_quasi = _residue_sum(ctx, _DATA, phi_model_dx, PI, quasi[:, None], lam=lam,
                           radius=contour.radius)
    t_bc = _residue_sum(ctx, _BOTH, phi_model, PI, table.phi[:, :, ix], offset=1.0,
                        radius=contour.radius)
    return complex(t_quasi), complex(-t_bc)


def r2_contour_quadrature(table, sd, md, contour: ContourSpec, lam: complex,
                          sigma_pi_raw: complex, n_nodes: int = 256,
                          ctx: MainEquationContext | None = None):
    if ctx is None:
        ctx = MainEquationContext(sd, md, table.K)
    th = np.exp(2j * PI * (np.arange(n_nodes) + 0.5) / n_nodes)
    mu = contour.radius * th
    phiK = phi_K_of_lambda(table, sd, md, PI, mu, ctx=ctx)
    dphiK = dphi_K_dx(table, sd, md, PI, mu, ctx=ctx)
    quasi = dphiK - sigma_pi_raw * phiK
    Mmu = weyl_model(mu) + weyl_difference_truncated(ctx, mu)
    hatM = weyl_difference_truncated(ctx, mu)
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
    if m1 is None:
        if sd.m1 is not None:
            m1, case = sd.m1, sd.case or "M1=M2"
        else:
            m1, case = detect_M1(sd)
    else:
        case = sd.case or "M1=M2"
    if case != "M1=M2":
        raise UnsupportedCase("reconstruction implements the deg(r1) >= deg(r2) case only")
    md = ModelData(m1)
    ctx = MainEquationContext(sd, md, K)
    table = solve_on_grid(sd, md, K, n_x=n_x, ctx=ctx)
    contour = ContourSpec(N) if N is not None else choose_contour(sd, md, K, ctx.xi)
    sigma = reconstruct_sigma(table, sd, md, ctx=ctx)
    r1, diag1 = reconstruct_r1(table, sd, md, contour, ctx=ctx)
    r2, diag2 = reconstruct_r2(table, sd, md, contour, sigma=sigma, ctx=ctx)
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
