"""Truncated main equation: per grid point x, the 2K x 2K linear system

    (E + H(x)) psi(x) = psi_tilde(x)

whose solution carries the values phi_{n,i}(x) of the unknown problem's
solution at the data poles (i=0) and the model poles (i=1).  The vector and
matrix come from the raw relation between phi and the model solution through

    psi_{n0} = chi_n (phi_{n,0} - phi_{n,1}),   psi_{n1} = phi_{n,1},

which turns the conditionally convergent raw system into an absolutely
bounded one.  The x-derivative of the solution obeys the differentiated
system (E + H) psi' = psi_tilde' - H' psi, with H' available in closed form
because d/dx D(x, lam, mu) = phi_model(x, lam) phi_model(x, mu).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._blas import single_thread
from ._util import phi_model, phi_model_dx
from .errors import Singular
from .model import ModelData, kernel_D, kernel_D_derivs_batch
from .spectral import SpectralData

PI = np.pi

XI_CUTOFF = 1e-12  # xi below this is treated as exactly zero (chi = 0)
COND_LIMIT = 1e12  # condition estimate above which a node's system is Singular


def xi_chi(sd: SpectralData, md: ModelData, K: int | None = None):
    """Distance sequence xi_n = |rho_n - rho~_n| + |alpha_n - alpha~_n| and its
    guarded reciprocal chi_n."""
    K = sd.K if K is None else K
    mds = md.spectral_data(K)
    xi = np.abs(sd.rho[:K] - mds.rho) + np.abs(sd.alpha[:K] - mds.alpha)
    chi = np.where(xi > XI_CUTOFF, 1.0 / np.where(xi == 0, 1.0, xi), 0.0)
    return xi, chi


@dataclass(frozen=True)
class MainEquationSystem:
    K: int
    x: float
    psi_tilde: np.ndarray       # (2K,), interleaved (n, i)
    H: np.ndarray               # (2K, 2K)
    dpsi_tilde: np.ndarray      # x-derivatives, same layout
    dH: np.ndarray


class MainEquationContext:
    """x-independent precomputation for one (data, model, K) triple."""

    def __init__(self, sd: SpectralData, md: ModelData, K: int | None = None):
        K = sd.K if K is None else K
        sd = sd.truncated(K)
        self.sd = sd
        self.md = md
        self.K = K
        mds = md.spectral_data(K)
        self.mds = mds
        self.xi, self.chi = xi_chi(sd, md, K)

        # per family and flat index: cluster order and size, the cluster's
        # pole, and the column terms (k, dorder, alpha) of the principal part
        # with alpha != 0, in (k, dorder) order; a column is 'special' when it
        # has a term with dorder >= 1
        self.fams = []
        for fam_sd in (sd, mds):
            head = np.repeat(fam_sd.heads, fam_sd.sizes)
            term_k, term_dord, term_w = [], [], []
            for h, m in zip(fam_sd.heads, fam_sd.sizes):
                for jk in range(m):
                    for jp in range(jk, m):
                        a = complex(fam_sd.alpha[h + jp])
                        if a != 0:
                            term_k.append(h + jk)
                            term_dord.append(jp - jk)
                            term_w.append(a)
            term_k = np.asarray(term_k, dtype=int)
            term_dord = np.asarray(term_dord, dtype=int)
            special = np.zeros(K, dtype=bool)
            special[term_k[term_dord >= 1]] = True
            self.fams.append({
                "sd": fam_sd,
                "order": np.arange(K) - head,
                "size": np.repeat(fam_sd.sizes, fam_sd.sizes),
                "lam_pt": fam_sd.lam[head],
                "alpha_flat": fam_sd.alpha,
                "term_k": term_k,
                "term_dord": term_dord,
                "term_w": np.asarray(term_w, dtype=complex),
                "special": special,
            })

        # rows where both families are simple: stable cosine-difference form
        self.plain_rows = (self.fams[0]["size"] == 1) & (self.fams[1]["size"] == 1)

    # -- x-dependent pieces ------------------------------------------------

    def phi_tilde(self, x: float):
        """Model values phi~_{n,i}(x) and x-derivatives, both families, (K,) each."""
        out = []
        for fam in self.fams:
            vals = np.empty(self.K, dtype=complex)
            dvals = np.empty(self.K, dtype=complex)
            for jorder in np.unique(fam["order"]):
                sel = fam["order"] == jorder
                vals[sel] = phi_model(int(jorder), x, fam["lam_pt"][sel])
                dvals[sel] = phi_model_dx(int(jorder), x, fam["lam_pt"][sel])
            out.append((vals, dvals))
        return out

    def g_vectors(self, x: float):
        """G_j[k] = sum of the column terms alpha phi_model(dorder, x, lam_k) of
        family j, so that d/dx of column k of block (i, j) is phi~_i(x) G_j[k]."""
        Gs = []
        for fam in self.fams:
            G = np.zeros(self.K, dtype=complex)
            for dord in np.unique(fam["term_dord"]):
                sel = fam["term_dord"] == dord
                ks = fam["term_k"][sel]
                np.add.at(G, ks, fam["term_w"][sel] * phi_model(int(dord), x, fam["lam_pt"][ks]))
            Gs.append(G)
        return Gs

    def kernel_columns(self, x: float, lam_r, order_r):
        """Cluster-corrected kernel matrices [B_0, B_1] against the poles of
        both families: B_j[r, k] is the sum over the terms (dorder, alpha) of
        column k of family j of alpha times
        (1/order_r!)(1/dorder!) d^order_r_lam d^dorder_mu D(x, lam_r, lam_k).

        Entries in rows with order_r >= 1 or in special columns are that sum,
        from one batched quadrature per family; the rest are
        D(x, lam_r, lam_k) alpha_k, from one kernel_D call for both families."""
        lam_r = np.asarray(lam_r, dtype=complex)
        order_r = np.asarray(order_r, dtype=int)
        K = self.K
        D = kernel_D(x, lam_r[:, None], np.concatenate([f["lam_pt"] for f in self.fams])[None, :])
        out = []
        for j, fam in enumerate(self.fams):
            B = D[:, j * K:(j + 1) * K] * fam["alpha_flat"][None, :]
            general = (order_r[:, None] >= 1) | fam["special"][None, :]
            if general.any():
                # each general entry (r, k) with the terms of column k, in
                # entry order, then term order
                ns, ks = np.nonzero(general)
                e, t = np.nonzero(ks[:, None] == fam["term_k"][None, :])
                ns, ks = ns[e], ks[e]
                vals = kernel_D_derivs_batch(x, lam_r[ns], order_r[ns],
                                             fam["lam_pt"][ks], fam["term_dord"][t])
                B[general] = 0.0
                np.add.at(B, (ns, ks), fam["term_w"][t] * vals)
            out.append(B)
        return out

    def q_blocks(self, x: float):
        """Q blocks and their x-derivatives at x, each (K, K)."""
        Q = {}
        for i, fam in enumerate(self.fams):
            Q[(i, 0)], Q[(i, 1)] = self.kernel_columns(x, fam["lam_pt"], fam["order"])
        (pt0, dpt0), (pt1, dpt1) = self.phi_tilde(x)
        Gs = self.g_vectors(x)
        dQ = {(i, j): frow[:, None] * Gs[j][None, :]
              for i, frow in enumerate((pt0, pt1)) for j in (0, 1)}
        return Q, dQ, (pt0, dpt0, pt1, dpt1)


def _transform(ctx: MainEquationContext, Qb):
    """[[chi, -chi], [0, 1]] Q [[xi, 1], [0, -1]] assembled interleaved."""
    K = ctx.K
    chi, xi = ctx.chi, ctx.xi
    d00 = Qb[(0, 0)] - Qb[(1, 0)]
    d01 = Qb[(0, 1)] - Qb[(1, 1)]
    H = np.zeros((2 * K, 2 * K), dtype=complex)
    H[0::2, 0::2] = chi[:, None] * d00 * xi[None, :]
    H[0::2, 1::2] = chi[:, None] * (d00 - d01)
    H[1::2, 0::2] = Qb[(1, 0)] * xi[None, :]
    H[1::2, 1::2] = Qb[(1, 0)] - Qb[(1, 1)]
    return H


def build_system(ctx: MainEquationContext, x: float) -> MainEquationSystem:
    """Assemble psi_tilde(x) and H(x) (plus x-derivatives) at one grid point
    for the context's (data, model, K) triple."""
    K = ctx.K
    Q, dQ, (pt0, dpt0, pt1, dpt1) = ctx.q_blocks(x)
    H = _transform(ctx, Q)
    dH = _transform(ctx, dQ)

    psi = np.zeros(2 * K, dtype=complex)
    dpsi = np.zeros(2 * K, dtype=complex)
    diff = pt0 - pt1
    ddiff = dpt0 - dpt1
    pl = ctx.plain_rows
    if np.any(pl):
        # cos a - cos b = -2 sin((a+b)/2) sin((a-b)/2): avoids cancellation when
        # the data pole sits close to its model partner
        rs = ctx.sd.rho[:K][pl] + ctx.mds.rho[pl]
        rd = ctx.sd.rho[:K][pl] - ctx.mds.rho[pl]
        diff = diff.copy()
        ddiff = ddiff.copy()
        diff[pl] = -2.0 * np.sin(rs * x / 2) * np.sin(rd * x / 2)
        ddiff[pl] = -(rs * np.cos(rs * x / 2) * np.sin(rd * x / 2)
                      + rd * np.sin(rs * x / 2) * np.cos(rd * x / 2))
    psi[0::2] = ctx.chi * diff
    psi[1::2] = pt1
    dpsi[0::2] = ctx.chi * ddiff
    dpsi[1::2] = dpt1
    return MainEquationSystem(K=K, x=float(x), psi_tilde=psi, H=H,
                              dpsi_tilde=dpsi, dH=dH)


def solve_system(system: MainEquationSystem):
    """Solve (E + H) psi = psi_tilde; returns (psi, dpsi, condition estimate).

    The condition number is LAPACK's 1-norm estimate from the LU factors
    (zgecon: Hager's method as refined by Higham), a lower bound on the exact
    ||A||_1 ||A^-1||_1 that is O(n^2) instead of an explicit inverse.  An
    estimate above COND_LIMIT raises Singular."""
    K = system.K
    A = np.eye(2 * K, dtype=complex) + system.H
    lu, piv, info = scipy.linalg.lapack.zgetrf(A)
    rcond = 0.0
    if info == 0:
        rcond, _ = scipy.linalg.lapack.zgecon(lu, np.abs(A).sum(axis=0).max(), norm="1")
    cond = float(1.0 / rcond) if rcond > 0 else np.inf  # rcond may be nan
    if cond > COND_LIMIT:
        raise Singular(f"main-equation matrix condition {cond:.3g} at x={system.x:.4f}")
    psi = scipy.linalg.lu_solve((lu, piv), system.psi_tilde, check_finite=False)
    resid = np.max(np.abs(A @ psi - system.psi_tilde))
    scale = max(np.max(np.abs(system.psi_tilde)), 1e-30)
    if resid > 1e-10 * scale:
        psi = psi + scipy.linalg.lu_solve((lu, piv), system.psi_tilde - A @ psi,
                                          check_finite=False)
        resid = np.max(np.abs(A @ psi - system.psi_tilde))
        if resid > 1e-10 * scale:
            raise Singular(f"residual {resid:.3g} did not meet tolerance at x={system.x:.4f}")
    rhs = system.dpsi_tilde - system.dH @ psi
    dpsi = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return psi, dpsi, cond


def recover_phi(psi: np.ndarray, xi: np.ndarray):
    """Invert the psi transform: phi_{n,0} = xi_n psi_{n0} + psi_{n1}, phi_{n,1} = psi_{n1}."""
    phi0 = xi * psi[0::2] + psi[1::2]
    phi1 = psi[1::2].copy()
    return phi0, phi1


@dataclass(frozen=True)
class PhiTable:
    """Solved phi^K_{n,i} and x-derivatives on the uniform grid, with the
    context of the (data, model, K) triple they solve; every reconstruction
    formula reads that triple from here."""

    x_grid: np.ndarray          # (n_x,)
    phi: np.ndarray             # (K, 2, n_x)
    dphi: np.ndarray            # (K, 2, n_x)
    cond: np.ndarray            # (n_x,)
    ctx: MainEquationContext

    @property
    def K(self) -> int:
        return self.ctx.K


def solve_at_x(ctx: MainEquationContext, x: float):
    """phi values and derivatives at a single (possibly off-grid) x."""
    system = build_system(ctx, x)
    psi, dpsi, cond = solve_system(system)
    phi0, phi1 = recover_phi(psi, ctx.xi)
    dphi0, dphi1 = recover_phi(dpsi, ctx.xi)
    return phi0, phi1, dphi0, dphi1, cond


def solve_on_grid(sd: SpectralData, md: ModelData, K: int, n_x: int = 512,
                  ctx: MainEquationContext | None = None) -> PhiTable:
    """Build, factor and solve the system at every node of the uniform grid.

    ctx, when given, must be MainEquationContext(sd, md, K); the returned
    table carries it.  The loop runs with OpenBLAS on one thread (see
    _blas.single_thread); the previous thread counts are restored when it
    ends or raises."""
    if ctx is None:
        ctx = MainEquationContext(sd, md, K)
    xs = np.linspace(0.0, PI, n_x)
    phi = np.empty((ctx.K, 2, n_x), dtype=complex)
    dphi = np.empty((ctx.K, 2, n_x), dtype=complex)
    cond = np.empty(n_x)
    with single_thread():
        for ix in range(n_x):
            try:
                p0, p1, d0, d1, c = solve_at_x(ctx, float(xs[ix]))
            except Singular as exc:
                raise Singular(f"{exc} (grid node {ix})") from exc
            phi[:, 0, ix], phi[:, 1, ix] = p0, p1
            dphi[:, 0, ix], dphi[:, 1, ix] = d0, d1
            cond[ix] = c
    return PhiTable(x_grid=xs, phi=phi, dphi=dphi, cond=cond, ctx=ctx)
