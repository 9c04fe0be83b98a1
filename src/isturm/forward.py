"""Forward solver for l y = lam y in quasi-derivative form.

The equation with q = sigma' is integrated as the 2x2 first-order system

    y'      = sigma y + y^[1]
    (y^[1])' = -sigma y^[1] - sigma^2 y - lam y

whose matrix A(sigma) satisfies A^2 = -lam I for frozen sigma.  Each step of
the integrator therefore uses the exact 2x2 exponential of the fourth-order
Magnus element built on two Gauss nodes; for piecewise-constant sigma (the
delta-interaction case) the propagation is exact to rounding once jump points
are mesh nodes.  Everything is vectorized over batches of lambda, which is
what makes the eigenvalue search and residue quadratures affordable.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._util import lam_batch, sqrt_lambda
from .errors import (AtPole, CountMismatch, MalformedInput, NoConvergence, NonFiniteState,
                     PoleTooClose)
from .problem import Polynomial, ProblemL, SigmaFunction, poly_eval
from .spectral import _CLUSTER_RTOL, SpectralData, group_multiplicities

PI = np.pi

_GAUSS_C1 = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_C2 = 0.5 + np.sqrt(3.0) / 6.0
# elements (steps x lambda) per block of step matrices in _propagate
_BLOCK = 4096
_N_QUAD = 64  # midpoint nodes of each weight-number circle
_RATIO_PER_RHO = 2.0  # master-box edge points per unit of rho (_master_count)
# step in rho of the positive real scan, a quarter of the asymptotic gap
# between eigenvalues; a pair inside one step gives no sign change
_SCAN_DRHO = 0.25


@dataclass(frozen=True)
class SolutionTrace:
    """Solution values on a uniform grid: y and the quasi-derivative y' - sigma y."""

    grid: np.ndarray
    y: np.ndarray
    y_quasi: np.ndarray


def _step_mesh(sigma: SigmaFunction, n_x: int) -> np.ndarray:
    """Uniform n_x-node grid over [0, pi] with sigma's breakpoints inserted;
    one within 1e-12 of a grid node is that node, so no sliver step arises."""
    base = np.linspace(0.0, PI, n_x)
    pts = np.asarray(sigma.breakpoints(), dtype=float)
    pts = pts[(pts > 0.0) & (pts < PI)]
    pts = pts[np.abs(pts - base[np.rint(pts / PI * (n_x - 1)).astype(int)]) > 1e-12]
    return np.unique(np.concatenate([base, pts])) if pts.size else base


def _step_matrices(w11, w12, a, b, P, Q, lam):
    """Entries of exp(Omega) for a block of steps (rows) and lambdas (columns).

    Omega = [[w11, w12], [a + b lam, -w11]] is trace free, so with
    u^2 = -det Omega = P + Q lam its exponential is cosh(u) I + sinh(u)/u Omega.
    Both are even in u, so the branch of the square root does not matter.
    cosh and sinh of u = x + iy come from the real cosh x, sinh x, cos y and
    sin y, which is several times cheaper than the complex functions.
    """
    u2 = P[:, None] + Q[:, None] * lam
    u = np.sqrt(u2)
    x = np.ascontiguousarray(u.real)
    y = np.ascontiguousarray(u.imag)
    chx, shx, cy, sy = np.cosh(x), np.sinh(x), np.cos(y), np.sin(y)
    cu = np.empty_like(u)
    np.multiply(chx, cy, out=cu.real)
    np.multiply(shx, sy, out=cu.imag)
    su = np.empty_like(u)
    np.multiply(shx, cy, out=su.real)
    np.multiply(chx, sy, out=su.imag)
    # sinh(u)/u, with its series 1 + u^2/6 + O(u^4) near (and at) u = 0
    small = x * x + y * y < 1e-16
    su /= np.where(small, 1.0, u)
    if small.any():
        su[small] = 1.0 + u2[small] / 6.0
    t = su * w11[:, None]
    return cu + t, su * w12[:, None], su * (a[:, None] + b[:, None] * lam), cu - t


def _propagate(sigma, lam, y0, yq0, mesh):
    """March the Magnus-4 propagator along mesh (ascending or descending).

    lam: (B,) complex.  y0/yq0: scalar or (B,).  Returns the state (y, y^[1])
    at the last mesh node, each of shape (B,).

    With sigma frozen at the Gauss values s1, s2 of a step of length h, the
    Magnus element h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1] of
    A(s) = [[s, 1], [-s^2 - lam, -s]] is [[w11, w12], [a + b lam, -w11]]:
    the commutator has c11 = s2^2 - s1^2, c12 = 2 (s2 - s1) and
    c21 = 2 s1 s2 (s1 - s2) + 2 lam (s2 - s1), so lam enters one entry
    linearly and u^2 = -det = P + Q lam.  w11, w12, a, b, P, Q are computed
    once per call for all steps.  The step matrices are then formed in blocks
    of at most _BLOCK (steps x lambda) elements, which bounds every
    temporary: a batch wider than _BLOCK is cut into independent lambda
    blocks of _BLOCK columns, a narrower one takes _BLOCK // width steps per
    block.  The Python loop does only the 2x2 mat-vec of each step.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    B = lam.shape[0]
    y_out = np.broadcast_to(np.asarray(y0, dtype=complex), (B,)).astype(complex)
    yq_out = np.broadcast_to(np.asarray(yq0, dtype=complex), (B,)).astype(complex)
    n_steps = len(mesh) - 1
    h = np.diff(mesh)
    s1 = np.asarray(sigma(mesh[:-1] + _GAUSS_C1 * h), dtype=complex)
    s2 = np.asarray(sigma(mesh[:-1] + _GAUSS_C2 * h), dtype=complex)
    f = np.sqrt(3.0) / 12.0 * h * h
    d = 2.0 * f * (s2 - s1)
    w11 = 0.5 * h * (s1 + s2) + f * (s2 * s2 - s1 * s1)
    w12 = h + d
    a = -0.5 * h * (s1 * s1 + s2 * s2) + 2.0 * f * s1 * s2 * (s1 - s2)
    b = d - h
    P = w11 * w11 + w12 * a
    Q = w12 * b

    with np.errstate(invalid="ignore", over="ignore"):
        for c0 in range(0, B, _BLOCK):
            cols = slice(c0, c0 + _BLOCK)
            lam_c = lam[cols]
            y, yq = y_out[cols], yq_out[cols]
            rows = _BLOCK // lam_c.shape[0]
            for r0 in range(0, n_steps, rows):
                st = slice(r0, r0 + rows)
                mats = _step_matrices(w11[st], w12[st], a[st], b[st], P[st], Q[st], lam_c)
                for m11, m12, m21, m22 in zip(*mats):
                    y, yq = m11 * y + m12 * yq, m21 * y + m22 * yq
            y_out[cols], yq_out[cols] = y, yq

    if not (np.all(np.isfinite(y_out)) and np.all(np.isfinite(yq_out))):
        raise NonFiniteState("integration overflow; |lambda| too large for step size")
    return y_out, yq_out


def integrate_solution(sigma: SigmaFunction, lam, init, direction: str = "ltr",
                       n_x: int = 1024) -> SolutionTrace:
    """Trace of the quasi-derivative system on the uniform n_x grid, for the
    first lam of a batch; the march runs from one uniform node to the next.

    init is (y, y^[1]) at x=0 for direction "ltr" or at x=pi for "rtl".
    sigma is never differentiated.
    """
    if n_x < 33:
        raise MalformedInput("n_x must be at least 33")
    if direction not in ("ltr", "rtl"):
        raise ValueError("direction must be 'ltr' or 'rtl'")
    grid = np.linspace(0.0, PI, n_x)
    mesh = _step_mesh(sigma, n_x)
    take = np.searchsorted(mesh, grid)
    if direction == "rtl":
        mesh, take = mesh[::-1], len(mesh) - 1 - take[::-1]
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    state = [np.broadcast_to(np.asarray(v, dtype=complex), lam.shape) for v in init]
    trace = [(state[0][0], state[1][0])]
    for i, j in zip(take[:-1], take[1:]):
        state = _propagate(sigma, lam, *state, mesh[i:j + 1])
        trace.append((state[0][0], state[1][0]))
    y, yq = np.array(trace[::-1] if direction == "rtl" else trace).T
    return SolutionTrace(grid=grid, y=y, y_quasi=yq)


def _psi_zero_batch(prob: ProblemL, lam, n_x):
    """(psi(0), psi^[1](0)) from the backward sweep with psi(pi)=r1, psi^[1](pi)=-r2."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    return _propagate(prob.sigma, lam, poly_eval(prob.r1, lam),
                      -poly_eval(prob.r2, lam), _step_mesh(prob.sigma, n_x)[::-1])


def char_delta(prob: ProblemL, lam, n_x: int = 1024):
    """Characteristic function Delta = r1 phi^[1](pi) + r2 phi(pi) = -psi^[1](0)."""
    lam_arr, shaped = lam_batch(lam)
    _, yq0 = _psi_zero_batch(prob, lam_arr, n_x)
    return shaped(-yq0)


def weyl_M(prob: ProblemL, lam, n_x: int = 1024):
    """Weyl function of the inner problem, the orientation with residues -> 2/pi.

    This is psi(0)/psi^[1](0) = -psi(0)/Delta, weyl_M1 with p1 = 1, p2 = 0; for
    the model problem it equals cos(rho pi) / (rho sin(rho pi)).
    """
    return weyl_M1(prob, Polynomial([1.0]), Polynomial([0.0]), lam, n_x)


def weyl_M1(prob: ProblemL, p1: Polynomial, p2: Polynomial, lam, n_x: int = 1024):
    """Weyl function with the polynomial condition at x = 0.

    Oriented so that the Moebius reduction M = p1 M1 / (1 + p2 M1) returns
    weyl_M exactly: M1 = psi(0) / (p1 psi^[1](0) - p2 psi(0)).
    """
    lam_arr, shaped = lam_batch(lam)
    y0, yq0 = _psi_zero_batch(prob, lam_arr, n_x)
    den = poly_eval(p1, lam_arr) * yq0 - poly_eval(p2, lam_arr) * y0
    if np.any(np.abs(den) < 1e-13 * np.maximum(np.abs(y0), 1.0)):
        raise AtPole("weyl_M1 evaluated at a pole")
    return shaped(y0 / den)


# ---------------------------------------------------------------------------
# Eigenvalue search.


def _rho_shift(prob: ProblemL) -> float:
    if prob.case == "M1=M2":
        return prob.m1 + 1.0
    return prob.m2 + 0.5


def _winding_data(f, polylines, max_refine=14):
    """Continuous log of f along each of several closed polylines.

    All polylines are evaluated in one f batch, and each refinement pass,
    which bisects every segment whose phase jump exceeds pi/2, in one more.
    Returns one (pts, logf) pair per polyline, or None for a polyline whose
    phase tracking did not settle or on which f vanishes at a point.
    """
    pts = [np.asarray(p, dtype=complex) for p in polylines]
    vals = np.split(f(np.concatenate(pts)), np.cumsum([len(p) for p in pts])[:-1])
    unsettled = range(len(pts))
    for _ in range(max_refine):
        bad = {i: np.flatnonzero(np.abs(np.angle(vals[i][1:] / vals[i][:-1])) > PI / 2)
               for i in unsettled}
        unsettled = [i for i, idx in bad.items() if idx.size]
        if not unsettled:
            break
        mids = [0.5 * (pts[i][bad[i]] + pts[i][bad[i] + 1]) for i in unsettled]
        vmid = np.split(f(np.concatenate(mids)), np.cumsum([len(m) for m in mids])[:-1])
        for i, m, v in zip(unsettled, mids, vmid):
            pts[i] = np.insert(pts[i], bad[i] + 1, m)
            vals[i] = np.insert(vals[i], bad[i] + 1, v)

    def logf(v):
        phase = np.concatenate([[0.0], np.cumsum(np.angle(v[1:] / v[:-1]))])
        return np.log(np.abs(v)) + 1j * (np.angle(v[0]) + phase)
    return [None if i in unsettled or not np.all(v) else (p, logf(v))
            for i, (p, v) in enumerate(zip(pts, vals))]


def _contour_moments(f, polylines, orders):
    """Per closed polyline, the root count and power sums
    (count, s1, ..., s_orders) of f inside it, derivative free (Delves &
    Lyness, Math. Comp. 21, 1967): integrates lam^p dlog f by parts with the
    continuously tracked log.  All polylines are traced in one _winding_data
    batch; an entry is None where tracking failed or the winding is more than
    0.05 from an integer."""
    def moments(pts, logf):
        wind = (logf[-1] - logf[0]).imag / (2 * PI)
        count = int(round(wind))
        if abs(wind - count) > 0.05:
            return None
        moms = [count]
        for p in range(1, orders + 1):
            integrand = pts ** (p - 1) * logf
            integral = np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(pts))
            moms.append(pts[0]**p * count - p / (2j * PI) * integral)
        return moms
    traced = _winding_data(f, polylines) if len(polylines) else []
    return [None if data is None else moments(*data) for data in traced]


def _edge_points(z0, z1, n_min=16, per_rho=14.0):
    """Points on the segment [z0, z1) spaced uniformly in rho = sqrt(lambda)
    arc length; 14 per unit of rho keep the phase of the characteristic
    function, which turns by pi per unit, from aliasing."""
    t_fine = np.linspace(0.0, 1.0, 257)
    z_fine = z0 + t_fine * (z1 - z0)
    arc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(sqrt_lambda(z_fine))))])
    n = max(n_min, int(per_rho * arc[-1]) + 1)
    t = np.interp(np.linspace(0.0, arc[-1], n, endpoint=False), arc, t_fine)
    return z0 + t * (z1 - z0)


def _rect_points(corners, n_side=16, per_rho=14.0):
    a, b, c, d = corners  # Re in [a,b], Im in [c,d]
    vv = [a + 1j * c, b + 1j * c, b + 1j * d, a + 1j * d]
    return np.concatenate([_edge_points(vv[i], vv[(i + 1) % 4], n_side, per_rho)
                           for i in range(4)] + [[vv[0]]])


def _circle_points(center, radius, n=96):
    th_fine = np.exp(2j * PI * np.linspace(0.0, 1.0, 513))
    z_fine = center + radius * th_fine
    arc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(sqrt_lambda(z_fine))))])
    n = max(n, int(14.0 * arc[-1]) + 1)
    th = np.exp(2j * PI * np.arange(n) / n)
    return np.concatenate([center + radius * th, [center + radius]])


def _winds_once(f, centers, radii):
    """Mask of the circles on which f winds once (to 0.05), that is, which
    hold exactly one simple root; all circles are traced in one batch."""
    moms = _contour_moments(f, [_circle_points(c, r) for c, r in zip(centers, radii)], 0)
    return np.array([m is not None and m[0] == 1 for m in moms], dtype=bool)


def _box_count(f, boxes):
    """Root count of f in each rectangle, None where it is not clean; one batch."""
    return [None if m is None else m[0]
            for m in _contour_moments(f, [_rect_points(c) for c in boxes], 0)]


def _model(prob: ProblemL):
    """(Delta~, count): the characteristic function of the model problem of
    prob's case (sigma = 0 with r1 = lam^M1, r2 = 0 when M1 = M2, with r1 = 0,
    r2 = lam^M2 when M1 = M2 - 1), and the number of its zeros in a box
    (a, b, c, d) with a < 0 < b and c < 0 < d whose edge holds none.

    Delta~ = -lam^M1 rho sin(rho pi) has zeros at lam = 0 (order M1 + 1) and
    rho = 1, 2, ...; Delta~ = lam^M2 cos(rho pi) at lam = 0 (order M2) and
    rho = 1/2, 3/2, ....  Those below rho = sqrt(b) are rho = k - frac with
    k = 1 .. ceil(sqrt(b) + frac) - 1."""
    if prob.case == "M1=M2":
        order, frac = prob.m1 + 1, 0.0

        def model(lam):
            rho = sqrt_lambda(lam)
            return -lam ** prob.m1 * rho * np.sin(rho * PI)
    else:
        order, frac = prob.m2, 0.5

        def model(lam):
            return lam ** prob.m2 * np.cos(sqrt_lambda(lam) * PI)
    return model, lambda box: order + int(np.ceil(np.sqrt(box[1]) + frac)) - 1


def _master_count(prob: ProblemL, f, box):
    """Root count of f = Delta in the master box, None where it is not clean.

    The comparison-function form of the argument principle (Kravanja & Van
    Barel, Computing the Zeros of Analytic Functions, LNM 1727, 2000): the
    model's zero count in the box plus the winding of Delta / Delta~.  Off
    the real axis the ratio tends to a constant as |rho| grows, so
    _RATIO_PER_RHO edge points per unit of rho track its phase, where
    Delta's own phase needs 14."""
    model, model_count = _model(prob)
    moms = _contour_moments(lambda z: f(z) / model(z),
                            [_rect_points(box, per_rho=_RATIO_PER_RHO)], 0)[0]
    return None if moms is None else model_count(box) + moms[0]


def _roots_from_moments(count, moms):
    """Root multiset of size count (<= 3) from power sums, Newton identities."""
    s1 = moms[1]
    if count == 1:
        return [s1]
    s2 = moms[2]
    e1 = s1
    e2 = (e1 * s1 - s2) / 2.0
    if count == 2:
        disc = np.sqrt(e1 * e1 - 4 * e2)
        return [(e1 + disc) / 2.0, (e1 - disc) / 2.0]
    s3 = moms[3]
    e3 = (e2 * s1 - e1 * s2 + s3) / 3.0
    return list(np.roots([1.0, -e1, e2, -e3]))


def _subdivide_hunt(f, corners, count, depth=0, max_depth=60):
    """Locate roots inside a rectangle holding a known number of them.

    Returns a list of groups, each a list of raw root estimates: singletons
    come from single-root boxes (clean first moments), tight groups from
    boxes that still hold 2..3 roots at the resolution floor.  Splits are
    chosen so children partition the parent; a split is rejected when the
    child counts do not add up."""
    if count == 0:
        return []
    a, b, c, d = corners
    small = max(b - a, d - c) < 1e-5 * (1.0 + max(abs(a), abs(b), abs(c), abs(d)))
    if count == 1 or (count <= 3 and small):
        moms = _contour_moments(f, [_rect_points(corners, n_side=96)], count)[0]
        if moms is None:
            raise NoConvergence("no clean winding on a root box")
        return [_roots_from_moments(count, moms)]
    if depth >= max_depth:
        raise NoConvergence("subdivision depth exhausted")
    horizontal = b - a >= d - c
    for frac in (0.5, 0.54, 0.44, 0.58, 0.38, 0.62):
        if horizontal:
            m = a + frac * (b - a)
            boxes = [(a, m, c, d), (m, b, c, d)]
        else:
            m = c + frac * (d - c)
            boxes = [(a, b, c, m), (a, b, m, d)]
        c1, c2 = _box_count(f, boxes)
        if c1 is None or c2 is None or c1 + c2 != count:
            continue
        return (_subdivide_hunt(f, boxes[0], c1, depth + 1, max_depth)
                + _subdivide_hunt(f, boxes[1], c2, depth + 1, max_depth))
    raise NoConvergence("no clean split found for a counting box")


def _polish_simple(f, roots, iters=30):
    """Batched secant polish of simple roots.  Returns (z, done), done marking
    the roots whose last step was below 1e-13 relative; those stop there, so
    each f batch holds only the roots still moving."""
    z0 = np.array(roots, dtype=complex)
    z1 = z0 * (1 + 1e-7) + 1e-7
    f0, f1 = f(z0), f(z1)
    done = np.zeros(len(z0), dtype=bool)
    for _ in range(iters):
        mv = np.flatnonzero(~done)
        if not mv.size:
            break
        denom = f1[mv] - f0[mv]
        # a secant flat to rounding (f1 == f0 although z1 != z0) has no
        # slope to follow: stay put instead of stepping by f1 dz / 1e-300
        flat = denom == 0
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        z2 = np.where(flat, z1[mv], z1[mv] - f1[mv] * (z1[mv] - z0[mv]) / denom)
        done[mv] = np.abs(z2 - z1[mv]) <= 1e-13 * (1 + np.abs(z2))
        z0[mv], f0[mv], z1[mv] = z1[mv], f1[mv], z2
        ev = mv[~done[mv]]
        if ev.size:
            f1[ev] = f(z1[ev])
    return z1, done


def _polish_cluster(f, center, m, scale, rounds=6):
    """Centroid refinement of an m-fold cluster by shrinking circle moments."""
    r = max(1e-3 * scale, 1e-8)
    for _ in range(rounds):
        moms = _contour_moments(f, [_circle_points(center, r)], 1)[0]
        if moms is None or moms[0] != m:
            r *= 1.7
            continue
        center = moms[1] / m
        r = max(r / 8.0, 1e-9 * (1 + abs(center)))
    return center


def _analyze_group(f, group, merge_tol=1e-5):
    """Resolve a coarse group of nearby raw roots into simple roots and/or a
    genuine cluster, using circle moments around the group."""
    group = np.asarray(group, dtype=complex)
    m = len(group)
    center = complex(np.mean(group))
    spread = float(np.max(np.abs(group - center))) if m > 1 else 0.0
    radius = max(4.0 * spread, 1e-3 * (1 + abs(center)))
    r_min = max(2.0 * spread, 1e-9 * (1 + abs(center)))
    for _ in range(8):
        moms = _contour_moments(f, [_circle_points(center, radius)], min(m, 3))[0]
        if moms is not None and moms[0] == m:
            break
        radius = radius * 1.6 if moms is None or moms[0] < m else max(radius * 0.5, r_min)
    else:
        raise NoConvergence("could not isolate a root group")
    if m > 3:
        raise NoConvergence(f"root group of size {m} exceeds the multiplicity cap")
    roots = _roots_from_moments(m, moms)
    rho = sqrt_lambda(np.asarray(roots))
    sep = np.max(np.abs(rho[:, None] - rho[None, :])) if m > 1 else 0.0
    distinct = m == 1 or sep >= merge_tol
    if distinct and m > 1:
        # the rho criterion over-resolves genuine multiples (noise in the
        # moment roots); accept the split only if each candidate isolates
        # exactly one root inside its own small circle
        lam_sep = min(abs(roots[a] - roots[b])
                      for a in range(m) for b in range(a + 1, m))
        r_ver = max(lam_sep / 4.0, 1e-10 * (1 + abs(center)))
        distinct = bool(_winds_once(f, roots, np.full(m, r_ver)).all())
    if distinct:
        polished, _ = _polish_simple(f, roots)
        return [(complex(z), 1) for z in polished]
    center = complex(_polish_cluster(f, complex(np.mean(roots)), m, 1 + abs(center)))
    return [(center, m)]


def _wide(lo, hi):
    """Mask of the brackets wider than 4e-16 * max(1, |lam|), about rounding."""
    return hi - lo > 4e-16 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))


def _illinois(f, lo, hi, flo, fhi, max_iter=60):
    """Shrink real sign-change brackets in place until none is _wide, by
    vectorised Illinois regula falsi (Dowell & Jarratt 1971): f is taken
    only at the brackets still open, and an end kept twice has f halved."""
    kept = np.zeros(len(lo), dtype=int)  # +1: the last step kept hi, -1: lo
    for _ in range(max_iter):
        op = np.flatnonzero(_wide(lo, hi))
        if not op.size:
            break
        x = np.clip(hi[op] - fhi[op] * (hi[op] - lo[op]) / (fhi[op] - flo[op]), lo[op], hi[op])
        fx = f(x)
        to_lo = fx * flo[op] > 0
        to_hi = fx * fhi[op] > 0
        i = op[to_lo]
        fhi[i[kept[i] == 1]] *= 0.5
        lo[i], flo[i], kept[i] = x[to_lo], fx[to_lo], 1
        i = op[to_hi]
        flo[i[kept[i] == -1]] *= 0.5
        hi[i], fhi[i], kept[i] = x[to_hi], fx[to_hi], -1
        i = op[fx == 0]
        lo[i] = hi[i] = x[fx == 0]


def _real_roots(f, lam_grid):
    """Real roots of f at the sign changes on lam_grid, each bracket closed
    to rounding by _illinois alone.  A bracket still open after its
    iterations is dropped, so the caller's count check sees the root missing."""
    vals = np.real(f(lam_grid))
    flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    lo, hi = lam_grid[flips], lam_grid[flips + 1]
    _illinois(lambda x: np.real(f(x)), lo, hi, vals[flips], vals[flips + 1])
    return (0.5 * (lo + hi))[~_wide(lo, hi)]


def _seeded_roots(f, master, total, K, shift, n0):
    """(certified roots, low-zone root groups) of f in the master box from
    the seeds lam_n = (n - shift)^2, n = n0..K, or None when the certified
    roots and the low-zone count do not add up to total."""
    if n0 > K:
        return None
    a, b, c, d = master
    n = np.arange(n0, K + 1)
    z, ok = _polish_simple(f, (n - shift) ** 2.0)
    gap = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(len(n), np.inf))
    radius = np.min([0.5 * gap.min(axis=1, initial=np.inf), z.real - (n - shift - 0.5) ** 2,
                     b - z.real, z.imag - c, d - z.imag], axis=0)
    ok &= radius > 1e-8 * (1 + np.abs(z))
    ok[ok] = _winds_once(f, z[ok], radius[ok])
    if not ok.all():
        n0 = n[~ok].max() + 1
    low = (a, min((n0 - shift - 0.5) ** 2, b), c, d)
    n_low = _box_count(f, [low])[0]
    certified = z[n >= n0]
    if n_low is None or n_low + len(certified) != total:
        return None
    return list(certified), _subdivide_hunt(f, low, n_low)


def find_eigenvalues(prob: ProblemL, K: int, n_x: int = 1024) -> np.ndarray:
    """First K eigenvalues as a complex array, ordered by the asymptotic
    numbering, a multiple eigenvalue repeated.

    A real problem brackets the sign changes of Delta on a real grid, steps
    of _SCAN_DRHO in rho on the positive axis, and closes each bracket to
    rounding by Illinois regula falsi alone.  Otherwise, or when that misses
    some of the K roots the master box count (_master_count) holds (no sign
    change, or a bracket Illinois did not close), the roots
    from n0 = ceil(shift + 2) on are seeded from rho_n ~ n - shift, polished
    by secant and certified by one winding circle each, all in one batch,
    and the low zone left of them (with any index whose certificate fails)
    is resolved by box subdivision; the whole master box is subdivided when
    the counts do not add up."""
    if K < prob.m1 + 2:
        raise MalformedInput("K must be at least M1 + 2")
    shift = _rho_shift(prob)
    top_rho = (K - shift) + 0.5

    def delta(lams):
        return char_delta(prob, np.asarray(lams, dtype=complex), n_x)

    # magnitude of sigma controls how deep the negative spectrum can sit
    sig_max = float(np.max(np.abs(prob.sigma(np.linspace(0, PI, 257)))))
    t_neg = max(4.0, 2.0 * sig_max + 2.0, prob.m1 + 2.0)
    if t_neg * PI > 2.0 * np.log(np.finfo(float).max):
        raise NonFiniteState(f"sup|sigma| = {sig_max:.6g} is too large: the solutions "
                             f"overflow at lambda = -({t_neg:.6g})^2, the deepest point "
                             "of the eigenvalue search")

    roots = None
    if prob.is_real:
        t_grid = np.arange(0.02, t_neg, 0.02)
        roots = _real_roots(delta, np.concatenate([-(t_grid[::-1] ** 2),
                                                   np.arange(1e-4, top_rho, _SCAN_DRHO) ** 2]))

    # master region count check
    master = (-(t_neg**2) - 1.0, top_rho**2, -max(6.0, 1.5 * top_rho),
              max(6.0, 1.5 * top_rho))
    for grow in range(3):
        total = _master_count(prob, delta, master)
        if total is not None:
            break
        # nudge boundaries off any zero; the top edge moves gently so the
        # (K+1)-th eigenvalue stays outside
        master = (master[0] - 1.3, master[1] + 0.4 * top_rho,
                  master[2] * 1.1, master[3] * 1.1)
    if total is None:
        raise CountMismatch("could not count roots in the master region")

    if total != K:
        raise CountMismatch(
            f"master region holds {total} eigenvalues, expected {K}; "
            "window tuning failed for this problem")

    if roots is not None and len(roots) == total:
        certified, groups = roots, []
    else:
        try:
            seeded = _seeded_roots(delta, master, total, K, shift, int(np.ceil(shift + 2.0)))
        except (NoConvergence, NonFiniteState):
            seeded = None
        certified, groups = seeded or ([], _subdivide_hunt(delta, master, total))
        if len(certified) + sum(len(g) for g in groups) != total:
            raise CountMismatch("subdivision lost roots")

    found = [(complex(z), 1) for z in certified]
    singles = [g[0] for g in groups if len(g) == 1]
    if singles:
        polished, _ = _polish_simple(delta, singles)
        found.extend((complex(z), 1) for z in polished)
    for g in groups:
        if len(g) > 1:
            found.extend(_analyze_group(delta, g))

    # merge polished duplicates (distinct search paths converging to one root)
    found.sort(key=lambda t: (t[0].real, t[0].imag))
    merged: list[list] = []
    for lam_c, m in found:
        if merged and (abs(lam_c - merged[-1][0]) <= _CLUSTER_RTOL * (1 + abs(lam_c))
                       or abs(sqrt_lambda(lam_c) - sqrt_lambda(merged[-1][0])) < 1e-5):
            merged[-1][1] += m
        else:
            merged.append([lam_c, m])

    def asymptotic_order(entry):
        rho = complex(sqrt_lambda(entry[0]))
        return round(rho.real, 9), rho.imag
    merged.sort(key=asymptotic_order)
    lam = np.array([z for z, m in merged for _ in range(m)], dtype=complex)
    if len(lam) != K:
        raise CountMismatch(f"assembled {len(lam)} eigenvalues, expected {K}")
    return lam


def weight_numbers(prob: ProblemL, lam, n_x: int = 1024) -> SpectralData:
    """Spectral data of the flattened eigenvalues lam: the principal-part
    coefficients alpha_{k+j} by circle quadrature of the forward-computed Weyl
    function psi(0)/psi^[1](0), one circle per distinct eigenvalue, from one
    batch of circle points.

    Every simple pole is cross-checked against the residue psi(0)/psi^[1]'
    at lam.  Both are entire, so the Cauchy integrals over the same samples
    give it as mean(psi(0)) / mean(psi^[1](0) / (z - lam)); it agrees with
    the circle to rounding only when lam is a root and the circle holds no
    other pole.  At a real lam of a real problem alpha is exactly real."""
    lam = np.asarray(lam, dtype=complex)
    heads, sizes = group_multiplicities(lam)
    lam_c = lam[list(heads)]
    th = np.exp(2j * PI * (np.arange(_N_QUAD) + 0.5) / _N_QUAD)

    gap = (np.abs(lam_c[:, None] - lam_c[None, :])
           + np.diag(np.full(len(lam_c), np.inf))).min(axis=1, initial=np.inf)
    radii = np.array([min(1e-2 * max(1.0, abs(z)), 0.25 * d) for z, d in zip(lam_c, gap)])
    close = np.flatnonzero(radii < 1e-10 * (1 + np.abs(lam_c)))
    if close.size:
        raise PoleTooClose(f"poles too close near lambda={lam_c[close[0]]:.6g}")

    z = lam_c[:, None] + radii[:, None] * th[None, :]
    y0, yq0 = (v.reshape(z.shape) for v in _psi_zero_batch(prob, z.ravel(), n_x))

    alpha = np.empty(len(lam), dtype=complex)
    for k, (h, m) in enumerate(zip(heads, sizes)):
        dz = z[k] - lam_c[k]  # the offsets of the samples as rounded
        alphas = [complex(np.mean(y0[k] / yq0[k] * dz ** (j + 1))) for j in range(m)]
        if prob.is_real and lam_c[k].imag == 0:
            alphas = [complex(a.real) for a in alphas]
        if m == 1:
            alt = np.mean(y0[k]) / np.mean(yq0[k] / dz)
            if abs(alt - alphas[0]) > 1e-8 * max(1.0, abs(alphas[0])):
                warnings.warn(
                    f"weight number cross-check mismatch at lambda={lam_c[k]:.6g}: "
                    f"circle {alphas[0]:.8g} vs psi/psi^[1]' {alt:.8g}",
                    stacklevel=2)
        alpha[h:h + m] = alphas
    return SpectralData.from_flat(lam, alpha, m1=prob.m1, case=prob.case)


def forward_spectral_data(prob: ProblemL, K: int, n_x: int = 1024) -> SpectralData:
    """find_eigenvalues + weight_numbers."""
    return weight_numbers(prob, find_eigenvalues(prob, K, n_x), n_x)
