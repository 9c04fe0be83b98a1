"""Round-trip harness: forward data generation, inversion, error report.

The uniqueness theory says the spectral data determines (sigma, r1, r2); the
operational check is forward -> invert -> compare at a stated truncation.
"""
from __future__ import annotations

import time

import numpy as np

from .forward import forward_spectral_data, weyl_M1
from .problem import FullProblem, Polynomial
from .reconstruct import invert_spectral_data
from .refine import invert_regular
from .regular import estimate_bN2


def sigma_l2_error(x_grid, values, sigma_fn) -> float:
    """Trapezoid L2(0, pi) distance between grid samples and a callable."""
    diff = np.abs(np.asarray(values) - np.asarray(sigma_fn(x_grid)))
    return float(np.sqrt(np.trapezoid(diff**2, x_grid)))


def sigma_l2_norm(x_grid, values) -> float:
    return sigma_l2_error(x_grid, values, np.zeros_like)


def coeff_error(p: Polynomial, target) -> float:
    """Max coefficient deviation against ascending target coefficients."""
    return float(np.max(np.abs((p - Polynomial(target)).as_array())))


def _timed_roundtrip(inner, K: int, n_x_forward: int, invert):
    """forward_spectral_data, then invert(sd); returns invert's result (with
    x_grid, sigma, r1 and r2) and the report fields both round trips share."""
    t0 = time.perf_counter()
    sd = forward_spectral_data(inner, K, n_x_forward)
    t1 = time.perf_counter()
    res = invert(sd)
    t2 = time.perf_counter()
    return res, {
        "K": K,
        "t_forward": t1 - t0,
        "t_invert": t2 - t1,
        "sigma_l2_error": sigma_l2_error(res.x_grid, res.sigma, inner.sigma),
        "r1_coeff_error": coeff_error(res.r1, inner.r1.coeffs),
        "r2_coeff_error": coeff_error(res.r2, inner.r2.coeffs),
    }


def roundtrip(prob, K: int, n_x_forward: int = 1024, n_x_inverse: int = 512) -> dict:
    """forward -> invert -> compare; returns a flat report dict."""
    inner = prob.inner if isinstance(prob, FullProblem) else prob
    return _timed_roundtrip(inner, K, n_x_forward,
                            lambda sd: invert_spectral_data(sd, K=K, n_x=n_x_inverse))[1]


def regular_roundtrip(full: FullProblem, K: int, n_x_forward: int = 1024,
                      n_x_inverse: int = 512) -> dict:
    """Both-ends polynomial problem: recover b_N2 from the Weyl asymptotics,
    run the inner round trip with defect correction, and transfer back to the
    classical form (q, r2_check)."""
    inner = full.inner
    n1 = full.p1.degree()

    def m1_fn(lam):
        return weyl_M1(inner, full.p1, full.p2, lam, n_x=n_x_forward)

    # the b_N2 recovery presumes a nonzero p2
    b_est = None if full.p2.is_zero else estimate_bN2(m1_fn, n1)
    reg, report = _timed_roundtrip(inner, K, n_x_forward,
                                   lambda sd: invert_regular(sd, K=K, n_x=n_x_inverse))
    report.update({
        "bN2_estimate": b_est,
        "q_values": reg.q,
        "sigma_values": reg.sigma,
        "sigma_pi": reg.sigma_pi,
        "r2_check": reg.r2_check,
        "x_grid": reg.x_grid,
        "result": reg,
        "diagnostics": reg.diagnostics,
    })
    if reg.m1 == 0:
        report["b0"] = complex(reg.r2.coeffs[0])
        report["b0_check"] = complex(reg.r2.coeffs[0] - reg.sigma_pi)
    return report
