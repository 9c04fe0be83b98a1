"""Independent forward oracle for piecewise-constant sigma.

On a piece where sigma = s is constant, the quasi-derivative system
(y, y^[1])' = A (y, y^[1]) with A = [[s, 1], [-s^2 - lam, -s]] has A^2 = -lam I,
so the exact transfer matrix over a length L is

    exp(A L) = cos(rho L) I + sin(rho L) / rho * A,      rho^2 = lam.

Products of these matrices give the characteristic function Delta(lam) and
psi(0, lam) in closed form.  They are evaluated in mpmath at 30 digits, so the
oracle shares no code and no arithmetic with isturm's Magnus integrator.
The weight number of a simple eigenvalue is the residue of the Weyl function
psi(0)/psi^[1](0) = -psi(0)/Delta, namely -psi(0, lam_n)/Delta'(lam_n).
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 30


class PiecewiseProblem:
    """sigma given by (start, value) pieces on [0, pi]; r1, r2 as ascending
    coefficient lists.  Roots and residues do not depend on a common scale of
    (r1, r2), so the pair need not be normalized."""

    def __init__(self, pieces, r1, r2):
        self.pieces = [(float(a), complex(s)) for a, s in pieces]
        self.r1 = [complex(c) for c in r1]
        self.r2 = [complex(c) for c in r2]

    def _lengths(self, end=math.pi):
        starts = [a for a, _ in self.pieces] + [end]
        return [(starts[i + 1] - starts[i], s) for i, (_, s) in enumerate(self.pieces)]

    # -- mpmath (30 digits) -------------------------------------------------

    def _mp_transfer(self, lam, sign):
        """Product of the per-piece transfer matrices, left to right
        (sign=+1, maps x=0 data to x=pi) or its inverse (sign=-1)."""
        rho = mp.sqrt(lam)
        t = mp.matrix([[1, 0], [0, 1]])
        for length, s in self._lengths(mp.pi):
            s = mp.mpc(s)
            c, sn = mp.cos(rho * length), mp.sin(rho * length)
            sinc = sn / rho if rho != 0 else mp.mpf(length)
            a = mp.matrix([[s, 1], [-s * s - lam, -s]])
            step = mp.matrix([[c, 0], [0, c]]) + sign * sinc * a
            t = step * t if sign > 0 else t * step
        return t

    @staticmethod
    def _poly(coeffs, lam):
        return mp.polyval([mp.mpc(c) for c in reversed(coeffs)], lam)

    def delta(self, lam):
        """Delta = r1 phi^[1](pi) + r2 phi(pi), with phi(0)=1, phi^[1](0)=0."""
        t = self._mp_transfer(lam, +1)
        return self._poly(self.r1, lam) * t[1, 0] + self._poly(self.r2, lam) * t[0, 0]

    def psi0(self, lam):
        """psi(0) for psi(pi) = r1, psi^[1](pi) = -r2."""
        tinv = self._mp_transfer(lam, -1)
        return tinv[0, 0] * self._poly(self.r1, lam) - tinv[0, 1] * self._poly(self.r2, lam)

    def root_near(self, lam0):
        """Root of Delta reached from lam0 by the secant iteration."""
        with mp.workdps(DPS):
            z = mp.findroot(self.delta, mp.mpc(lam0), tol=mp.mpf(10) ** (-DPS + 4))
            scale = abs(self.delta(mp.mpc(lam0) + 1)) + 1
            if abs(self.delta(z)) > mp.mpf(10) ** (-DPS + 8) * scale:
                raise ArithmeticError(f"oracle root near {lam0} did not converge")
            return complex(z)

    def residue(self, lam):
        """Weight number -psi(0)/Delta'(lam) at a simple eigenvalue."""
        with mp.workdps(DPS):
            z = mp.mpc(lam)
            return complex(-self.psi0(z) / mp.diff(self.delta, z))

    # -- numpy (double precision), for scanning only -------------------------

    def delta_real_scan(self, lams):
        """Delta on a real lam grid, vectorized in double precision."""
        lam = np.asarray(lams, dtype=complex)
        rho = np.sqrt(lam)
        t00, t01 = np.ones_like(lam), np.zeros_like(lam)
        t10, t11 = np.zeros_like(lam), np.ones_like(lam)
        for length, s in self._lengths():
            c = np.cos(rho * length)
            sinc = np.where(rho == 0, length, np.sin(rho * length) / np.where(rho == 0, 1, rho))
            m00, m01 = c + sinc * s, sinc
            m10, m11 = sinc * (-s * s - lam), c - sinc * s
            t00, t01, t10, t11 = (m00 * t00 + m01 * t10, m00 * t01 + m01 * t11,
                                  m10 * t00 + m11 * t10, m10 * t01 + m11 * t11)
        r1 = np.polyval(self.r1[::-1], lam)
        r2 = np.polyval(self.r2[::-1], lam)
        return np.real(r1 * t10 + r2 * t00)


def real_spectrum(prob: PiecewiseProblem, K: int, lam_min: float = -40.0):
    """First K eigenvalues and weight numbers of a real self-adjoint problem
    with simple spectrum: sign changes of Delta on a fine grid in rho, each
    polished to 30 digits.  Returns two complex arrays."""
    t = np.arange(0.005, math.sqrt(-lam_min), 0.005)
    rho = np.arange(0.0, K + 2.0, 0.005)
    grid = np.concatenate([-(t[::-1] ** 2), rho**2])
    vals = prob.delta_real_scan(grid)
    flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    if len(flips) < K:
        raise ArithmeticError(f"scan found {len(flips)} sign changes, need {K}")
    lams, alphas = [], []
    for i in flips[:K]:
        lo, hi = grid[i], grid[i + 1]
        with mp.workdps(DPS):
            z = mp.findroot(lambda v: mp.re(prob.delta(v)), (mp.mpf(lo), mp.mpf(hi)),
                            solver="anderson")
        lams.append(complex(float(z), 0.0))
        alphas.append(complex(prob.residue(float(z)).real, 0.0))
    return np.array(lams), np.array(alphas)


def check_spectral_data(prob: PiecewiseProblem, lams, alphas, K: int) -> dict:
    """Compare isturm's forward output against the oracle.

    Checks that the count is K, that each lam_n is matched by an oracle root
    reached from lam_n and that the matched roots are distinct, and that each
    alpha_n equals the oracle residue.  Errors are relative to max(1, |value|).
    """
    lams = np.asarray(lams, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    if len(lams) != K or len(alphas) != K:
        return {"ok": False, "why": f"count {len(lams)} != K={K}",
                "eig_err": math.inf, "alpha_err": math.inf}
    roots = np.array([prob.root_near(z) for z in lams])
    gaps = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(gaps, np.inf)
    spacing = np.min(gaps)
    eig_err = float(np.max(np.abs(lams - roots) / np.maximum(1.0, np.abs(roots))))
    res = np.array([prob.residue(z) for z in roots])
    alpha_err = float(np.max(np.abs(alphas - res) / np.maximum(1.0, np.abs(res))))
    distinct = spacing > 1e-8
    return {"ok": bool(distinct), "why": "" if distinct else "two eigenvalues share one root",
            "eig_err": eig_err, "alpha_err": alpha_err}


def _integrate(sig, lam, y0, length, backward=False, steps=4000):
    """(y, y^[1]) carried across one piece by classical RK4, for the
    self-check; plain Python so the check loads nothing beyond numpy."""
    a, b, c, d = sig, 1.0, -sig * sig - lam, -sig
    h = -length / steps if backward else length / steps
    y, yq = complex(y0[0]), complex(y0[1])

    def f(u, v):
        return a * u + b * v, c * u + d * v

    for _ in range(steps):
        k1 = f(y, yq)
        k2 = f(y + h / 2 * k1[0], yq + h / 2 * k1[1])
        k3 = f(y + h / 2 * k2[0], yq + h / 2 * k2[1])
        k4 = f(y + h * k3[0], yq + h * k3[1])
        y += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        yq += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return y, yq


def self_check() -> float:
    """Known-answer test of the oracle's root and residue paths: sigma = 0,
    r1 = 1, r2 = b.

    The eigenvalues are rho^2 with rho tan(rho pi) = b (one root in each
    (n, n + 1/2)), and the weight numbers are 1/||phi_n||^2 with
    ||phi_n||^2 = pi/2 + sin(2 rho pi)/(4 rho).  Robin data has one piece,
    so the composition of pieces is checked separately: Delta and psi(0) of
    a three-piece problem against a direct numerical integration of the
    quasi-derivative system (classical RK4), which must agree to 1e-9.
    Returns the largest relative error; raises if it exceeds 1e-13 (root
    and residue) or 1e-9 (integration).
    """
    b = 0.75
    prob = PiecewiseProblem([(0.0, 0.0)], [1.0], [b])
    worst = 0.0
    for n in range(6):
        with mp.workdps(DPS):
            rho = mp.findroot(lambda r: r * mp.tan(r * mp.pi) - b,
                              (mp.mpf(n) + mp.mpf("1e-9"), mp.mpf(n) + mp.mpf("0.4999")),
                              solver="anderson")
            lam = complex(rho**2)
            alpha = complex(1 / (mp.pi / 2 + mp.sin(2 * rho * mp.pi) / (4 * rho)))
        z = prob.root_near(lam * (1 + 1e-3))
        worst = max(worst, abs(z - lam) / max(1, abs(lam)),
                    abs(prob.residue(z) - alpha) / abs(alpha))
    if worst > 1e-13:
        raise ArithmeticError(f"oracle self-check failed: error {worst:.3g}")

    step = PiecewiseProblem([(0.0, 0.0), (1.3, 0.9), (2.2, -0.4)], [0.5, 1.0], [b])
    for lam in (2.3, 17.1 + 0.5j):
        phi, psi = (1.0, 0.0), (0.5 + lam, -b)
        pieces = step._lengths()
        for length, sig in pieces:
            phi = _integrate(sig, lam, phi, length)
        for length, sig in reversed(pieces):
            psi = _integrate(sig, lam, psi, length, backward=True)
        with mp.workdps(DPS):
            z = mp.mpc(lam)
            got = (complex(step.delta(z)), complex(step.psi0(z)))
        for g, d in zip(got, ((0.5 + lam) * phi[1] + b * phi[0], psi[0])):
            err = abs(g - d) / max(1.0, abs(d))
            if err > 1e-9:
                raise ArithmeticError(f"oracle self-check failed: integration error {err:.3g}")
            worst = max(worst, err)
    return worst
