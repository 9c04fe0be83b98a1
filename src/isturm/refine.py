"""Defect-corrected inversion for the regular (smooth-potential) layer.

The truncated reconstruction carries a boundary layer near x = pi whose size
scales with the top coefficient of r2 (the mismatch against the reference
problem's zero boundary polynomial), plus an O(1/K) bias in the recovered
boundary constants.  Both are functionals of the problem itself, so they
cancel to second order under a forward/invert defect-correction pass: forward
the (smoothed) reconstruction, invert that synthetic data with the same
truncation, and subtract the reproduced bias.  Smoothing before the re-forward
keeps the two passes' truncation tails aligned.  Real data gives a real
problem, whose forward data takes the real main equation again.  The forward
runs on the reconstruction's sample grid refined to steps of at most 1/K, so
no Magnus step straddles a kink of the piecewise-linear reconstruction.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .forward import forward_spectral_data
from .problem import Polynomial, ProblemL, SigmaGridSamples
from .reconstruct import ReconstructionResult, invert_spectral_data
from .regular import check_r2_shift
from .spectral import SpectralData

PI = np.pi
EDGE_BANDS = (0.04, 0.12)   # left/right boundary bands of sigma, fractions of pi


def smooth_grid(values: np.ndarray, x_grid: np.ndarray, width: float) -> np.ndarray:
    """Two moving-average passes of the given width (a triangular kernel);
    width is chosen as the period of the truncation tone so the tone nulls."""
    v = np.asarray(values)
    h = x_grid[1] - x_grid[0]
    w = int(round(width / h)) | 1
    if w <= 1:
        return v.copy()
    k = np.ones(w) / w
    out = v
    for _ in range(2):
        pad = np.pad(out, w // 2, mode="reflect", reflect_type="odd")
        out = np.convolve(pad, k, mode="valid")[: len(v)]
    return out


def invert_refined(sd: SpectralData, K: int | None = None,
                   n_x: int = 512) -> ReconstructionResult:
    """invert_spectral_data plus one defect-correction pass.

    The pass forwards the smoothed reconstruction on its sample grid refined
    m = ceil(pi K / (n_x - 1)) times, inverts that data at the same truncation
    and adds back the difference of the two smoothed reconstructions.
    """
    K = sd.K if K is None else K
    res0 = invert_spectral_data(sd, K=K, n_x=n_x)
    xs = res0.x_grid
    width = PI / K
    sig0_s = smooth_grid(res0.sigma, xs, width)
    prob = ProblemL(SigmaGridSamples(sig0_s), res0.r1, res0.r2)
    m = int(np.ceil(PI * K / (n_x - 1)))
    sd_p = forward_spectral_data(prob, K, (n_x - 1) * m + 1)
    res_p = invert_spectral_data(sd_p, K=K, n_x=n_x)
    delta = sig0_s - smooth_grid(res_p.sigma, xs, width)
    sig_est = sig0_s + delta
    r1_est = res0.r1 + res0.r1 - res_p.r1
    r2_est = res0.r2 + res0.r2 - res_p.r2
    diagnostics = dict(res0.diagnostics)
    diagnostics["refine_corrections"] = [float(np.max(np.abs(delta)))]
    diagnostics["bc_constant_refined"] = complex(r2_est.coeffs[0]) if r2_est.coeffs else 0j
    return replace(res0, sigma=sig_est, r1=r1_est, r2=r2_est, diagnostics=diagnostics)


@dataclass
class RegularResult(ReconstructionResult):
    """invert_refined's result in classical form: sigma with its right band
    rebuilt from q = sigma', and r2_check = r2 - sigma(pi) r1."""

    q: np.ndarray
    sigma_pi: complex
    r2_check: Polynomial


def invert_regular(sd: SpectralData, K: int | None = None,
                   n_x: int = 512) -> RegularResult:
    """The regular-layer chain: invert_refined, recover_q, rebuild_sigma_tail
    and check_r2_shift."""
    ref = invert_refined(sd, K=K, n_x=n_x)
    q = recover_q(ref.sigma, ref.x_grid, ref.K)
    sigma = rebuild_sigma_tail(ref.sigma, q, ref.x_grid)
    sigma_pi = complex(sigma[-1])
    return RegularResult(**{**vars(ref), "sigma": sigma}, q=q, sigma_pi=sigma_pi,
                         r2_check=check_r2_shift(ref.r2, ref.r1, sigma_pi))


def recover_q(sigma_values: np.ndarray, x_grid: np.ndarray, K: int):
    """q = sigma' for the smooth layer: tone-nulling smoothing, five-point
    stencils, and quadratic extrapolation across the EDGE_BANDS, where the
    series reconstruction is least trustworthy."""
    xs = np.asarray(x_grid, dtype=float)
    h = xs[1] - xs[0]
    sig = smooth_grid(sigma_values, xs, PI / K)
    q = np.gradient(sig, h, edge_order=2)
    q[2:-2] = (sig[:-4] - 8 * sig[1:-3] + 8 * sig[3:-1] - sig[4:]) / (12 * h)
    n = len(xs)
    lo_band = int(EDGE_BANDS[0] * n)
    hi_band = n - int(EDGE_BANDS[1] * n)
    for sel, fit in ((slice(0, lo_band), slice(lo_band, lo_band + max(n // 6, 8))),
                     (slice(hi_band, n), slice(hi_band - max(n // 6, 8), hi_band))):
        if sel.start >= sel.stop:
            continue
        coef = np.polyfit(xs[fit], q[fit], 2)
        q[sel] = np.polyval(coef, xs[sel])
    return q


def rebuild_sigma_tail(sigma_values: np.ndarray, q_values: np.ndarray,
                       x_grid: np.ndarray):
    """Replace the right boundary band of sigma (EDGE_BANDS[1]) by integrating
    the recovered q from the last trusted node.

    The series reconstruction of sigma is least reliable against the right
    endpoint; for the smooth layer the antiderivative of q is the better
    continuation there."""
    xs = np.asarray(x_grid, dtype=float)
    sig = np.asarray(sigma_values).copy()
    n = len(xs)
    hi = n - int(EDGE_BANDS[1] * n)
    h = xs[1] - xs[0]
    tail = np.cumsum(0.5 * (q_values[hi:] + q_values[hi - 1:-1])) * h
    sig[hi:] = sig[hi - 1] + tail
    return sig
