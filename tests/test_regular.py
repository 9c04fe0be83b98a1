from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import brentq

from isturm import (ModelData, Polynomial, ProblemL, SigmaGridSamples, SigmaPolynomialInX,
                    SigmaZero, choose_contour, estimate_bN2, forward_spectral_data,
                    invert_spectral_data, reconstruct_r2, reconstruct_sigma, solve_on_grid,
                    weyl_M1)
from isturm.errors import FitUnstable
from isturm.forward import _step_mesh
from isturm.refine import invert_regular, rebuild_sigma_tail, recover_q, smooth_grid
from isturm.regular import check_r2_shift

PI = np.pi


def test_estimate_bN2_synthetic_exact():
    # exact leading asymptotics with zero remainder, b = 2
    def m1(lam):
        rho = -1j * np.sqrt(-lam.real + 0j).real  # lam real negative
        rho = -1j * np.sqrt(-np.real(lam))
        return -(1.0 / (1j * rho)) * (1.0 - 2.0 / (1j * rho))

    assert abs(estimate_bN2(m1, 0) - 2.0) < 1e-10


def test_estimate_bN2_forward_oracle_b1():
    inner = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([1]))
    m1 = lambda lam: weyl_M1(inner, Polynomial([1]), Polynomial([1]), lam, 512)
    b = estimate_bN2(m1, 0)
    assert abs(b - 1.0) < 0.02


def test_estimate_bN2_forward_oracle_bneg3():
    inner = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([1]))
    m1 = lambda lam: weyl_M1(inner, Polynomial([1]), Polynomial([-3]), lam, 512)
    b = estimate_bN2(m1, 0)
    assert abs(b - (-3.0)) < 0.06


def test_check_r2_shift():
    r2c = check_r2_shift(Polynomial([1 + PI, 1]), Polynomial([1, 1]), PI)
    np.testing.assert_allclose(r2c.as_array(), [1, 1 - PI])


def _robin_constants(table):
    """(b0, b0_check): the boundary constant that reconstruct_r2 reports and
    its classical form b0 - sigma(pi), for the M1 = 0 case."""
    b0 = reconstruct_r2(table, choose_contour(table.ctx))[1]["bc_constant"]
    return b0, b0 - reconstruct_sigma(table).values[-1]


def test_robin_constants_model_zero():
    md = ModelData(0)
    sd = md.spectral_data(12)
    table = solve_on_grid(sd, md, 12, n_x=65)
    b0, b0_check = _robin_constants(table)
    assert abs(b0) < 1e-12 and abs(b0_check) < 1e-12


def test_robin_constants_roundtrip(robin_sd25):
    _, sd = robin_sd25
    md = ModelData(0)
    table = solve_on_grid(sd, md, 25, n_x=129)
    b0, b0_check = _robin_constants(table)
    assert abs(b0 - 1.0) < 5e-3


def test_transfer_consistency_q_one():
    # forward data of the antiderivative form of -y'' + y = lam y matches the
    # closed-form spectrum of the classical problem (a lambda shift by 1)
    inner = ProblemL(SigmaPolynomialInX([0, 1]), Polynomial([1]), Polynomial([1 + PI]))
    sd = forward_spectral_data(inner, 10, 2048)
    # classical oracle: q = 1, y'(0) = 0, y'(pi) + 1 y(pi) = 0; with
    # mu = lam - 1 the characteristic equation is -s sin(s pi) + cos(s pi) = 0
    f = lambda s: -s * np.sin(s * PI) + np.cos(s * PI)
    want = [1 + brentq(f, 1e-9, 1 - 1e-9, xtol=1e-14) ** 2]
    for n in range(2, 11):
        want.append(1 + brentq(f, n - 1 + 1e-9, n - 1e-9, xtol=1e-14) ** 2)
    np.testing.assert_allclose(np.real(sd.lam), want, atol=1e-6)


def test_bN2_fit_unstable_raises():
    def ragged(lam):
        rho = -1j * np.sqrt(-np.real(lam))
        # strong spurious rho^(-1/2) term breaks the linear-in-1/t model
        return -(1.0 / (1j * rho)) * (1.0 - 2.0 / (1j * rho)
                                      + 3.0 / np.sqrt(np.abs(rho)))

    with pytest.raises(FitUnstable):
        estimate_bN2(ragged, 0)


def test_smooth_grid_nulls_the_tone():
    xs = np.linspace(0, PI, 513)
    K = 40
    tone = 0.05 * np.cos(2 * K * xs)
    sig = xs + tone
    out = smooth_grid(sig, xs, PI / K)
    assert np.max(np.abs(out[40:-40] - xs[40:-40])) < 2e-4


def test_recover_q_on_clean_sigma():
    # dominant error: quadratic extrapolation across the right band
    xs = np.linspace(0, PI, 513)
    q = recover_q(np.sin(xs) + 0j, xs, K=40)
    inner = slice(int(0.05 * 513), int(0.95 * 513))
    assert np.max(np.abs(q[inner] - np.cos(xs[inner]))) < 1e-2


def test_recover_q_linear():
    xs = np.linspace(0, PI, 257)
    q = recover_q(xs.astype(complex), xs, K=40)
    assert np.max(np.abs(q - 1.0)) < 1e-12


def test_recover_q_zero():
    xs = np.linspace(0, PI, 64)
    q = recover_q(np.zeros(64, dtype=complex), xs, K=40)
    assert np.max(np.abs(q)) < 1e-12


def _rel_gap(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def test_grid_sigma_forward_on_its_own_grid():
    # SigmaGridSamples is linear between its samples and kinks at each, so a
    # mesh on its own grid keeps Magnus-4's order: 129 -> 257 nodes cuts the
    # gap to an 8x-refined aligned mesh 16 times (measured 1.1e-8 in lambda
    # and 9.5e-7 in alpha on 129 nodes)
    xs = np.linspace(0, PI, 129)
    prob = ProblemL(SigmaGridSamples(np.sin(xs) + 0.3 * xs**2), Polynomial([1]),
                    Polynomial([1.5]))
    ref, own, twice = (forward_spectral_data(prob, 20, n) for n in (8 * 128 + 1, 129, 257))
    lam_gap, alpha_gap = _rel_gap(own.lam, ref.lam), _rel_gap(own.alpha, ref.alpha)
    assert lam_gap < 3e-8 and alpha_gap < 3e-6
    assert _rel_gap(twice.lam, ref.lam) < lam_gap / 10
    assert _rel_gap(twice.alpha, ref.alpha) < alpha_gap / 10


@pytest.mark.parametrize("n_s, m", [(257, 1), (257, 2), (129, 3), (33, 5)])
def test_aligned_mesh_keeps_its_nodes(n_s, m):
    # a sample node a rounding away from a mesh node is that node: no sliver steps
    n_x = (n_s - 1) * m + 1
    np.testing.assert_array_equal(_step_mesh(SigmaGridSamples(np.zeros(n_s)), n_x),
                                  np.linspace(0.0, PI, n_x))


def test_grid_sigma_kinks_are_mesh_nodes():
    # a mesh that does not hold the sample nodes takes them as extra nodes, so
    # no Magnus step crosses a kink (without: 7e-9 and 1.6e-8, with: 2.5e-12)
    xs = np.linspace(0, PI, 129)
    prob = ProblemL(SigmaGridSamples(np.sin(xs) + 0.3 * xs**2), Polynomial([1]),
                    Polynomial([1.5]))
    ref = forward_spectral_data(prob, 20, 2049)
    for n_x in (1000, 1024):
        got = forward_spectral_data(prob, 20, n_x)
        assert np.max(np.abs(got.lam - ref.lam) / np.abs(ref.lam)) < 1e-10


@lru_cache(maxsize=None)
def _smooth_sd(K):
    """Data of the regular-roundtrip kind of problem: sigma = x + x^2 / 40,
    r1 = 1, r2 = 1 + sigma(pi)."""
    coeffs = [0.0, 1.0, 0.025]
    r2 = Polynomial([1.0 + np.polyval(coeffs[::-1], PI)])
    return forward_spectral_data(ProblemL(SigmaPolynomialInX(coeffs), Polynomial([1]), r2),
                                 K, 1024)


def _corrected(sd, K, n_x, factor):
    """invert_regular written out, with the correction forward on the sample
    grid refined `factor` times; returns (sigma, r1, r2)."""
    res0 = invert_spectral_data(sd, K=K, n_x=n_x)
    xs = res0.x_grid
    sig0 = smooth_grid(res0.sigma, xs, PI / K)
    sd_p = forward_spectral_data(ProblemL(SigmaGridSamples(sig0), res0.r1, res0.r2), K,
                                 (n_x - 1) * factor + 1)
    res_p = invert_spectral_data(sd_p, K=K, n_x=n_x)
    sigma = 2 * sig0 - smooth_grid(res_p.sigma, xs, PI / K)
    return (rebuild_sigma_tail(sigma, recover_q(sigma, xs, K), xs), res0.r1 + res0.r1 - res_p.r1,
            res0.r2 + res0.r2 - res_p.r2)


def _max_gap(a, b):
    return max(float(np.max(np.abs(a[0] - b[0]))),
               *(float(np.max(np.abs((p - r).as_array()))) for p, r in zip(a[1:], b[1:])))


@pytest.mark.parametrize("K, n_x, bound", [(40, 257, 1.5e-5), (40, 33, 2e-4), (80, 129, 1e-4)])
def test_correction_forward_matches_refined_mesh(K, n_x, bound):
    # measured gaps to the 16x-refined pass: 4.2e-6, 6.2e-5 (m = 4) and
    # 3.1e-5 (m = 2), all in sigma
    sd = _smooth_sd(K)
    reg = invert_regular(sd, K=K, n_x=n_x)
    ref = _corrected(sd, K, n_x, 16)
    assert _max_gap((reg.sigma, reg.r1, reg.r2), ref) < bound
    if n_x == 33:
        # the bare sample grid, m = 1, misses the bound (7.2e-3 measured)
        assert _max_gap(_corrected(sd, K, n_x, 1), ref) > bound
