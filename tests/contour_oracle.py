"""Independent references for the residue sums of the sigma, r1 and r2
formulas.

residue_sum forms each sum cluster by cluster from the spectral data's heads
and sizes, a per-cluster loop that shares nothing with the column terms of
MainEquationContext.residue_weights, which the package evaluates instead.
The contour terms over a ContourSpec circle are then evaluated twice: by
residue_sum over the poles inside it, and by the trapezoid rule on the
circle from phi^K(x, lam) and the Weyl functions alone.  The two must agree
to quadrature accuracy.
"""
import numpy as np

from isturm import ContourSpec, dphi_K_dx, phi_K_of_lambda
from isturm._util import phi_model, phi_model_dx, sqrt_lambda
from isturm.maineq import MainEquationContext, PhiTable
from isturm.reconstruct import _node, _quasi_pi, reconstruct_sigma
from isturm.spectral import _principal_part_sum

PI = np.pi
QUAD_NODES = 256        # trapezoid nodes of the contour quadrature cross-checks

BOTH = ((0, 1.0), (1, -1.0))   # (family, sign): data poles minus model poles
DATA = ((0, 1.0),)


def residue_sum(ctx: MainEquationContext, fams, tower, x, values, lam=None,
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
        fam_sd = (ctx.sd, ctx.mds)[fam]
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
    total = residue_sum(table.ctx, BOTH, phi_model, x, table.phi[:, :, ix], offset=0.5,
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
    total = residue_sum(table.ctx, DATA, phi_model_dx, PI, table.phi[:, :, -1], lam=lam,
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
    t_quasi = residue_sum(table.ctx, DATA, phi_model_dx, PI,
                          _quasi_pi(table, sigma_pi_raw)[:, None], lam=lam,
                          radius=contour.radius)
    t_bc = residue_sum(table.ctx, BOTH, phi_model, PI, table.phi[:, :, -1], offset=1.0,
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


def worst_mismatch(table: PhiTable, contour: ContourSpec, ixs=(), lam=None) -> float:
    """Largest |residue - quadrature| of the sigma term at the grid nodes ixs
    and, given lam, of the r1 term and the two r2 terms at lam.  The trapezoid
    rule needs the circle clear of every pole, so a pole on it raises."""
    if np.min(np.abs(np.abs(table.ctx.lam) - contour.radius)) <= 1e-6 * contour.radius:
        raise ValueError(f"a pole lies on the contour |lam| = {contour.radius}")
    diffs = [abs(sigma_contour_residue(table, contour, table.x_grid[ix])
                 - sigma_contour_quadrature(table, contour, table.x_grid[ix])) for ix in ixs]
    if lam is not None:
        sigma_pi_raw = complex(reconstruct_sigma(table).raw[-1])
        diffs.append(abs(r1_contour_residue(table, contour, lam)
                         - r1_contour_quadrature(table, contour, lam)))
        rq, rb = r2_contour_residue(table, contour, lam, sigma_pi_raw)
        qq, qb = r2_contour_quadrature(table, contour, lam, sigma_pi_raw)
        diffs += [abs(rq - qq), abs(rb - qb)]
    return max(diffs)
