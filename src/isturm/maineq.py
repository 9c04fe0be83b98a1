"""Truncated main equation: per grid point x, the 2K x 2K linear system

    (E + H(x)) psi(x) = psi_tilde(x)

whose solution carries the values phi_{n,i}(x) of the unknown problem's
solution at the data poles (i=0) and the model poles (i=1).  The vector and
matrix come from the raw relation between phi and the model solution through

    psi_{n0} = chi_n (phi_{n,0} - phi_{n,1}),   psi_{n1} = phi_{n,1},

which turns the conditionally convergent raw system into an absolutely
bounded one.  The x-derivative of the solution obeys the differentiated
system (E + H) psi' = psi_tilde' - H' psi.

Real data (every lam and alpha of data and model real) runs the same code in
float64 with LAPACK's d-routines, else complex128.  There a pole lam < 0 has
rho = -i|rho|; the context keeps |rho| and forms cosh/sinh(|rho| x) for
cos(rho x) and rho sin(rho x); a near pair of mixed signs has m = -conj(p), so
sinc(p x) + sinc(m x) = 2 Re sinc(p x).  A data pole lam < 0 pairs with a
model pole lam~ >= 0, so the two are close only near 0, where the plain table
difference cos(rho_0 x) - cos(rho_1 x) loses only absolute rounding.

Each node reads one table: cos/sin(rho x) at the 2K poles and, at clustered
poles, the towers phi_model/phi_model_dx.  The order-0 kernel is
(rho S (x) C - C (x) rho S) times the x-free Cauchy matrix 1/(lam - mu),
except at the near pairs |lam - mu| <= EPS_D_BASE (1 + |rho_lam| + |rho_mu|)^2,
where that product cancels and kernel_D's closed form is taken; cluster
entries take the (lam - mu) recurrence of model.py or, near the diagonal, its
double series for small poles and its 700-node Gauss-Legendre rule for large
ones.  As d/dx D(x, lam, mu) = phi_model(x, lam) phi_model(x, mu),
H' = psi_tilde v^T is rank one; the system carries v, and one LU solve with
two right-hand sides gives psi and psi'.  The same column terms against the
table give residue_weights, the one principal-part sum behind v and behind
every residue sum of the sigma, r1 and r2 formulas (reconstruct.py).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._blas import single_thread
from ._util import _phi_tower, sqrt_lambda
from .errors import Singular
from .model import (EPS_D_BASE, RECURRENCE_SEPARATION, SERIES_RADIUS, ModelData,
                    _kernel_D_pm, _kernel_D_recurrence, _kernel_D_series, _sinc,
                    kernel_D_derivs_batch)
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
    v: np.ndarray               # (2K,), H' = psi_tilde v^T
    weights: np.ndarray | None = None  # residue_weights(x), which v is built from


class MainEquationContext:
    """x-independent precomputation for one (data, model, K) triple.  The 2K
    poles of both families, end to end, are the columns of every kernel matrix
    and the rows of the Q blocks; column k has the terms (k, dorder, alpha)
    with alpha != 0 and is 'special' when one has dorder >= 1."""

    def __init__(self, sd: SpectralData, md: ModelData, K: int | None = None):
        K = sd.K if K is None else K
        sd, mds = sd.truncated(K), md.spectral_data(K)
        self.sd, self.mds, self.K = sd, mds, K
        self.xi, self.chi = xi_chi(sd, md, K)

        fam_sds = (sd, mds)
        heads = [np.repeat(f.heads, f.sizes) for f in fam_sds]
        lam = np.concatenate([f.lam[h] for f, h in zip(fam_sds, heads)])
        alpha = np.concatenate([sd.alpha, mds.alpha])
        real = not (lam.imag.any() or alpha.imag.any())
        self.dtype, rho = np.dtype(float if real else complex), sqrt_lambda(lam)
        self.lam, self.alpha, self.rho = ((lam.real, alpha.real, np.abs(rho)) if real
                                          else (lam, alpha, rho))
        self.neg = (lam.real < 0) & real
        self.order = np.concatenate([np.arange(K) - h for h in heads])
        terms = [(off + h + jk, jp - jk, off + h + jp)
                 for off, f in ((0, sd), (K, mds)) for h, m in zip(f.heads, f.sizes)
                 for jk in range(m) for jp in range(jk, m) if f.alpha[h + jp] != 0]
        self.term_k, self.term_dord, term_a = np.array(terms, dtype=int).reshape(-1, 3).T
        self.term_w = self.alpha[term_a]
        self.special = np.isin(np.arange(2 * K), self.term_k[self.term_dord >= 1])
        self.clustered = np.concatenate([np.repeat(f.sizes, f.sizes) for f in fam_sds]) > 1
        self.top = int(max(self.order.max(), self.term_dord.max(initial=0)))
        self._pole_rows = self._rows(self.lam, rho, self.order)
        # rows where both families are simple and the data pole is not real < 0, and
        # rho_0 +- rho_1, the difference as a quotient: |rho_0 + rho_1| >= |rho_0 - rho_1|
        pl = np.flatnonzero(~self.clustered[:K] & ~self.clustered[K:] & ~self.neg[:K])
        rs = self.rho[pl] + self.rho[K + pl]
        self.plain = (pl, rs, (self.lam[pl] - self.lam[K + pl]) / np.where(rs == 0, 1.0, rs))

    def _rows(self, lam_r, rho_r, order_r):
        """x-free part of a kernel matrix: the Cauchy matrix 1/(lam_r - lam_k)
        (1 at lam_r = lam_k), the near pairs |lam_r - lam_k| <= EPS_D_BASE
        (1 + |rho_r| + |rho_k|)^2 where its product cancels, with kernel_D's p and
        m, and the general entries (rows of order >= 1 or special columns), one per term."""
        dd = lam_r[:, None] - self.lam[None, :]
        near = np.abs(dd) <= EPS_D_BASE * (1 + np.abs(rho_r)[:, None] + np.abs(self.rho)) ** 2
        nr, nk = np.nonzero(near)
        general = (order_r[:, None] >= 1) | self.special[None, :]
        ns, t = np.nonzero(general[:, self.term_k])  # entry order, then term order
        ks = self.term_k[t]
        return {"lam": lam_r, "cauchy": 1.0 / np.where(dd == 0, 1.0, dd),
                "near": (nr, nk), "pm": _kernel_D_pm(lam_r[nr], self.lam[nk]),
                "general": general, "ns": ns, "ks": ks,
                "a": order_r[ns], "b": self.term_dord[t], "w": self.term_w[t],
                "sep": np.abs(dd[ns, ks]), "rsum": np.abs(rho_r[ns]) + np.abs(self.rho[ks]),
                "big": np.maximum(np.abs(lam_r[ns]), np.abs(self.lam[ks]))}

    def _table(self, x: float):
        """phi_model and phi_model_dx of orders 0..top at the 2K poles (orders
        >= 1 only at clustered poles, zero elsewhere), and S: rho S = rho sin(rho x)."""
        a, n = self.rho * x, self.neg
        S, C = np.sin(a), np.cos(a)
        S[n], C[n] = -np.sinh(a[n]), np.cosh(a[n])
        T, dT = np.zeros((2, self.top + 1, 2 * self.K), dtype=self.dtype)
        T[0], dT[0] = C, -self.rho * S
        if self.top:
            c = self.clustered
            T[1:, c], dT[1:, c] = (t[1:] for t in _phi_tower(self.top, x, self.lam[c]))
        return T, dT, S

    def residue_weights(self, x: float, lam=None, tower: int = 0, table=None):
        """Per-pole weights W of the residue sums over the column terms, with
        T = _table(x)[tower] (0: phi_model, 1: phi_model_dx).  Without lam,
        W[k] = sum of alpha T[dorder, k] over the terms of column k: the
        residues against the Weyl difference, and d/dx Q_(i,j) = phi~_i W_j^T.
        With lam (any shape; poles on a new last axis), the residues against
        M(mu) / (lam - mu): W[..., k] = sum alpha sum_{p <= dorder} T[p, k] /
        (lam - lam_k)^(dorder - p + 1), the Leibniz expansion of
        (1/dorder!) d^dorder_mu [T(x, mu) / (lam - mu)].  A residue sum over
        both families is W[..., :K] @ v_0 - W[..., K:] @ v_1."""
        T = (self._table(x) if table is None else table)[tower]
        k, d = self.term_k, self.term_dord
        if lam is None:
            vals = T[d, k]
        else:
            inv = 1.0 / (np.asarray(lam, dtype=complex)[..., None] - self.lam[k])
            vals = T[0, k] * inv
            for p in range(1, self.top + 1):  # Horner over p, each term to its dorder
                vals = np.where(d >= p, (vals + T[p, k]) * inv, vals)
        W = np.zeros(vals.shape[:-1] + (2 * self.K,), dtype=vals.dtype)
        np.add.at(W, (..., k), self.term_w * vals)
        return W

    def _kernel(self, x, rows, row_table, table):
        """Cluster-corrected kernel matrix: entry (r, k) sums, over the terms of
        column k, alpha (1/order_r!)(1/dorder!) d^order_r_lam d^dorder_mu D(x, lam_r, lam_k).
        Near pairs take kernel_D; a general entry takes the recurrence at delta >=
        RECURRENCE_SEPARATION, else the series in SERIES_RADIUS, else quadrature."""
        (Tr, dTr), (T, dT, S) = row_table[:2], table
        B = np.multiply.outer(-dTr[0], T[0])
        B -= np.multiply.outer(Tr[0], self.rho) * S
        B *= rows["cauchy"]
        near = (x / 2) * sum(_sinc(pm * x) for pm in rows["pm"])
        B[rows["near"]] = near if np.iscomplexobj(B) else near.real
        B *= self.alpha
        ns, ks, a, b = rows["ns"], rows["ks"], rows["a"], rows["b"]
        if ns.size:
            vals = np.empty(ns.size, dtype=B.dtype)
            far = rows["sep"] * x * x >= RECURRENCE_SEPARATION * (1 + x * rows["rsum"])
            small = ~far & (rows["big"] * x * x <= SERIES_RADIUS)
            f, s, q = np.flatnonzero(far), np.flatnonzero(small), np.flatnonzero(~far & ~small)
            vals[f] = _kernel_D_recurrence(Tr[:, ns[f]], dTr[:, ns[f]], T[:, ks[f]],
                                           dT[:, ks[f]], rows["cauchy"][ns[f], ks[f]], a[f], b[f])
            vals[s] = _kernel_D_series(x, rows["lam"][ns[s]], a[s], self.lam[ks[s]], b[s])
            vals[q] = kernel_D_derivs_batch(x, rows["lam"][ns[q]], a[q], self.lam[ks[q]], b[q])
            B[rows["general"]] = 0.0
            np.add.at(B, (ns, ks), rows["w"] * vals)
        return B

    def kernel_columns(self, x: float, lam_r):
        """Cluster-corrected kernel matrices [B_0, B_1] of the order-0 rows
        lam_r against the poles of both families (see _kernel)."""
        rho_r = sqrt_lambda(lam_r)
        rows = self._rows(lam_r, rho_r, np.zeros(len(lam_r), dtype=int))
        B = self._kernel(x, rows, (np.cos(rho_r * x)[None], -rho_r * np.sin(rho_r * x)[None]),
                         self._table(x))
        return [B[:, :self.K], B[:, self.K:]]

    def q_blocks(self, x: float):
        """Q blocks at x, each (K, K), the residue weights W of their
        x-derivatives (d/dx Q_(i,j) = phi~_i W_j^T, W_j the family-j half), and
        the model values phi~_i(x) with their x-derivatives."""
        table = self._table(x)
        B = self._kernel(x, self._pole_rows, table, table)
        K = self.K
        Q = {(i, j): B[i * K:(i + 1) * K, j * K:(j + 1) * K] for i in (0, 1) for j in (0, 1)}
        pole = np.arange(2 * K)
        pt, dpt = table[0][self.order, pole], table[1][self.order, pole]
        return Q, self.residue_weights(x, table=table), (pt[:K], dpt[:K], pt[K:], dpt[K:])


def _transform(ctx: MainEquationContext, Qb):
    """[[chi, -chi], [0, 1]] Q [[xi, 1], [0, -1]] assembled interleaved."""
    chi, xi = ctx.chi[:, None], ctx.xi[None, :]
    d00, d01 = Qb[(0, 0)] - Qb[(1, 0)], Qb[(0, 1)] - Qb[(1, 1)]
    H = np.empty((2 * ctx.K, 2 * ctx.K), dtype=ctx.dtype)
    H[0::2, 0::2], H[0::2, 1::2] = chi * d00 * xi, chi * (d00 - d01)
    H[1::2, 0::2], H[1::2, 1::2] = Qb[(1, 0)] * xi, Qb[(1, 0)] - Qb[(1, 1)]
    return H


def build_system(ctx: MainEquationContext, x: float) -> MainEquationSystem:
    """Assemble psi_tilde(x) and H(x) (plus x-derivatives) at one grid point
    for the context's (data, model, K) triple, in the context's dtype."""
    Q, W, (pt0, dpt0, pt1, dpt1) = ctx.q_blocks(x)
    diff, ddiff = pt0 - pt1, dpt0 - dpt1
    # cos a - cos b = -2 sin((a+b)/2) sin((a-b)/2): avoids cancellation when
    # the data pole sits close to its model partner
    (pl, rs, rd), K = ctx.plain, ctx.K
    ss, sd, cs, cd = np.sin(rs * x / 2), np.sin(rd * x / 2), np.cos(rs * x / 2), np.cos(rd * x / 2)
    diff[pl] = -2.0 * ss * sd
    ddiff[pl] = -(rs * cs * sd + rd * ss * cd)
    # interleaved; dQ_(i,j) = phi~_i W_j^T, so the transform of dQ is psi_tilde v^T
    psi, dpsi, v = np.empty((3, 2 * K), dtype=ctx.dtype)
    psi[0::2], psi[1::2] = ctx.chi * diff, pt1
    dpsi[0::2], dpsi[1::2] = ctx.chi * ddiff, dpt1
    v[0::2], v[1::2] = W[:K] * ctx.xi, W[:K] - W[K:]
    return MainEquationSystem(K=K, x=float(x), psi_tilde=psi, H=_transform(ctx, Q),
                              dpsi_tilde=dpsi, v=v, weights=W)


def solve_system(system: MainEquationSystem):
    """Solve (E + H) psi = psi_tilde; returns (psi, dpsi, condition estimate).

    One LU solve with the right-hand sides psi_tilde and psi_tilde' gives psi
    and y = (E + H)^-1 psi_tilde'; as H' = psi_tilde v^T, the differentiated
    system (E + H) dpsi = psi_tilde' - H' psi has dpsi = y - (v . psi) psi.

    The condition number is LAPACK's 1-norm estimate from the LU factors
    (dgecon or zgecon by dtype: Hager's method as refined by Higham), a lower
    bound on the exact ||A||_1 ||A^-1||_1 that is O(n^2) instead of an explicit
    inverse.  An estimate above COND_LIMIT raises Singular."""
    rhs = np.column_stack((system.psi_tilde, system.dpsi_tilde))
    A = system.H.astype(np.result_type(system.H, rhs))
    A.flat[::len(A) + 1] += 1.0
    getrf, gecon, getrs = scipy.linalg.get_lapack_funcs(("getrf", "gecon", "getrs"), (A,))
    lu, piv, info = getrf(A)
    rcond = 0.0
    if info == 0:
        rcond, _ = gecon(lu, np.abs(A).sum(axis=0).max(), norm="1")
    cond = float(1.0 / rcond) if rcond > 0 else np.inf  # rcond may be nan
    if cond > COND_LIMIT:
        raise Singular(f"main-equation matrix condition {cond:.3g} at x={system.x:.4f}")
    psi, y = getrs(lu, piv, rhs)[0].T
    resid = np.max(np.abs(A @ psi - system.psi_tilde))
    scale = max(np.max(np.abs(system.psi_tilde)), 1e-30)
    if resid > 1e-10 * scale:
        psi = psi + getrs(lu, piv, system.psi_tilde - A @ psi)[0]
        resid = np.max(np.abs(A @ psi - system.psi_tilde))
        if resid > 1e-10 * scale:
            raise Singular(f"residual {resid:.3g} did not meet tolerance at x={system.x:.4f}")
    return psi, y - (system.v @ psi) * psi, cond


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
    weights: np.ndarray         # (n_x, 2K): ctx.residue_weights(x) at each node
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
    ends or raises.  The table's arrays have the context's dtype."""
    if ctx is None:
        ctx = MainEquationContext(sd, md, K)
    xs = np.linspace(0.0, PI, n_x)
    phi, dphi = np.empty((2, ctx.K, 2, n_x), dtype=ctx.dtype)
    weights = np.empty((n_x, 2 * ctx.K), dtype=ctx.dtype)
    cond = np.empty(n_x)
    with single_thread():
        for ix in range(n_x):
            try:
                system = build_system(ctx, float(xs[ix]))
                psi, dpsi, cond[ix] = solve_system(system)
                weights[ix] = system.weights
            except Singular as exc:
                raise Singular(f"{exc} (grid node {ix})") from exc
            phi[:, 0, ix], phi[:, 1, ix] = recover_phi(psi, ctx.xi)
            dphi[:, 0, ix], dphi[:, 1, ix] = recover_phi(dpsi, ctx.xi)
    return PhiTable(x_grid=xs, phi=phi, dphi=dphi, cond=cond, weights=weights, ctx=ctx)
