import numpy as np
import pytest
from scipy.optimize import brentq

from isturm import (ModelData, Polynomial, ProblemL, SigmaPolynomialInX, SigmaZero,
                    choose_contour, estimate_bN2, forward_spectral_data, reconstruct_r2,
                    reconstruct_sigma, solve_on_grid, weyl_M1)
from isturm.errors import FitUnstable
from isturm.refine import recover_q, smooth_grid
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
    sigma = reconstruct_sigma(table)
    b0 = reconstruct_r2(table, choose_contour(table.ctx), sigma)[1]["bc_constant"]
    return b0, b0 - sigma.sigma_pi


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
    q, _ = recover_q(np.sin(xs) + 0j, xs, K=40)
    inner = slice(int(0.05 * 513), int(0.95 * 513))
    assert np.max(np.abs(q[inner] - np.cos(xs[inner]))) < 1e-2


def test_recover_q_linear():
    xs = np.linspace(0, PI, 257)
    q, _ = recover_q(xs.astype(complex), xs, K=40)
    assert np.max(np.abs(q - 1.0)) < 1e-12


def test_recover_q_zero():
    xs = np.linspace(0, PI, 64)
    q, _ = recover_q(np.zeros(64, dtype=complex), xs, K=40)
    assert np.max(np.abs(q)) < 1e-12
