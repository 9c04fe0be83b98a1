"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Forward data for the shared fixtures is computed once per module; truncating a
longer run is exact (same problem, same leading records).
"""
import time

import numpy as np
import pytest
from scipy.optimize import fsolve

from isturm import (ModelData, Polynomial, ProblemL, SigmaStep, SigmaZero, char_delta,
                    choose_contour, find_eigenvalues, forward_spectral_data,
                    invert_spectral_data, kernel_D, regular_roundtrip, sigma_l2_error,
                    sigma_l2_norm, solve_on_grid, weight_numbers)
from isturm._util import phi_model_dx
from isturm.maineq import MainEquationContext, build_system
from isturm.model import EPS_D_BASE
from isturm.problem import FullProblem, SigmaPolynomialInX
from isturm.reconstruct import reconstruct_r1
from isturm.spectral import SpectralData
from isturm.verify import coeff_error
from contour_oracle import DATA, residue_sum, worst_mismatch
from q_oracle import kernel_D_derivs

PI = np.pi


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def robin_sd60():
    prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([1]))
    t0 = time.perf_counter()
    sd = forward_spectral_data(prob, 60, 1024)
    return prob, sd, time.perf_counter() - t0


@pytest.fixture(scope="module")
def poly_sd60():
    prob = ProblemL(SigmaZero(), Polynomial([1, 1]), Polynomial([1]))
    return prob, forward_spectral_data(prob, 60, 1024)


@pytest.fixture(scope="module")
def step_sd160():
    prob = ProblemL(SigmaStep(1.0, PI / 2), Polynomial([1]), Polynomial([1]))
    return prob, forward_spectral_data(prob, 160, 1024)


@pytest.fixture(scope="module")
def poly60_inversion(poly_sd60):
    prob, sd = poly_sd60
    md = ModelData(1)
    ctx = MainEquationContext(sd, md, 60)
    table = solve_on_grid(sd, md, 60, n_x=512, ctx=ctx)
    return prob, sd, md, ctx, table


def test_criterion_1_model_fixed_point():
    worst_sigma, worst_r1, worst_r2, t_max = 0.0, 0.0, 0.0, 0.0
    for M1 in (0, 1, 2):
        md = ModelData(M1)
        sd = md.spectral_data(40)
        t0 = time.perf_counter()
        res = invert_spectral_data(sd, K=40, n_x=512)
        t_max = max(t_max, time.perf_counter() - t0)
        worst_sigma = max(worst_sigma, sigma_l2_norm(res.x_grid, res.sigma))
        want_r1 = np.zeros(M1 + 1)
        want_r1[-1] = 1.0
        worst_r1 = max(worst_r1, coeff_error(res.r1, want_r1))
        worst_r2 = max(worst_r2, coeff_error(res.r2, [0.0]))
    ok = worst_sigma < 1e-8 and worst_r1 < 1e-8 and worst_r2 < 1e-8 and t_max < 30
    _report("criterion 1 (model fixed point M1=0,1,2)", ok,
            f"|sigma|={worst_sigma:.2e}, r1 err={worst_r1:.2e}, "
            f"r2 err={worst_r2:.2e}, slowest {t_max:.1f}s")


def test_criterion_2_robin_roundtrip(robin_sd60):
    prob, sd, t_fwd = robin_sd60
    t0 = time.perf_counter()
    res = invert_spectral_data(sd, K=60, n_x=512)
    t_inv = time.perf_counter() - t0
    b0 = complex(res.diagnostics["bc_constant"])
    b0_err = abs(b0 - 1.0)
    sig_norm = sigma_l2_norm(res.x_grid, res.sigma)
    agree = abs(b0 - res.r2.coeffs[0])
    runtime = t_fwd + t_inv
    ok = b0_err < 5e-3 and sig_norm < 5e-2 and agree < 1e-6 and runtime < 120
    _report("criterion 2 (Robin roundtrip K=60)", ok,
            f"|b0-1|={b0_err:.2e}, |sigma|={sig_norm:.2e}, "
            f"b0 vs r2 const={agree:.2e}, runtime={runtime:.0f}s")


def test_criterion_3_polynomial_bc_roundtrip(poly_sd60):
    prob, sd = poly_sd60
    res = invert_spectral_data(sd, K=60, n_x=512)
    r1_err = coeff_error(res.r1, [1.0, 1.0])
    r2_err = coeff_error(res.r2, [1.0])
    # r2 = 1 has no lam term; the fit of degree M1 = 1 must not make one up
    r2_lam = abs(np.append(res.r2.as_array(), 0)[1])
    sig_norm = sigma_l2_norm(res.x_grid, res.sigma)
    ok = r1_err < 5e-3 and r2_err < 5e-3 and r2_lam <= 1e-10 and sig_norm < 5e-2
    _report("criterion 3 (polynomial BC roundtrip)", ok,
            f"r1 err={r1_err:.2e}, r2 err={r2_err:.2e}, r2 lam coeff={r2_lam:.2e}, "
            f"|sigma|={sig_norm:.2e}")


def test_criterion_4_delta_potential_roundtrip(step_sd160):
    prob, sd160 = step_sd160
    errs = {}
    for K in (60, 80):
        res = invert_spectral_data(sd160.truncated(K), K=K, n_x=512)
        errs[K] = sigma_l2_error(res.x_grid, res.sigma, prob.sigma)
    ok = errs[60] < 0.1 and errs[80] < errs[60]
    _report("criterion 4 (delta potential roundtrip)", ok,
            f"L2 err K=60: {errs[60]:.3f}, K=80: {errs[80]:.3f}")


def test_criterion_5_regular_potential():
    inner = ProblemL(SigmaPolynomialInX([0.0, 1.0]), Polynomial([1]),
                     Polynomial([1 + PI]))
    full = FullProblem(Polynomial([1]), Polynomial([1]), inner)
    rep = regular_roundtrip(full, K=60, n_x_forward=1024, n_x_inverse=512)
    q = np.real(rep["q_values"])
    n = len(q)
    inner_sel = slice(int(0.05 * n), int(0.95 * n))
    q_err = float(np.max(np.abs(q[inner_sel] - 1.0)))
    b_err = abs(rep["bN2_estimate"] - 1.0)
    ok = q_err < 5e-2 and b_err < 0.02
    _report("criterion 5 (regular potential, Algorithm 2 path)", ok,
            f"q inner-90 max err={q_err:.2e}, bN2 err={b_err:.2e}")


def test_criterion_6_asymptotics_suite(robin_sd60, poly_sd60, step_sd160):
    fixtures = [("robin", robin_sd60[1], 0), ("poly", poly_sd60[1], 1),
                ("step", step_sd160[1].truncated(60), 0)]
    ok = True
    details = []
    for name, sd, m1 in fixtures:
        n = np.arange(1, 61)
        kappa = np.abs(sd.rho - (n - m1 - 1))
        alpha_dev = np.abs(sd.alpha - 2 / PI)
        tail_ok = np.max(kappa[40:]) < 0.05 and np.max(alpha_dev[40:]) < 0.05
        s_k = np.cumsum(kappa**2)
        s_a = np.cumsum(alpha_dev**2)
        sq_ok = (s_k[59] - s_k[49] <= s_k[39] - s_k[29] + 1e-12
                 and s_a[59] - s_a[49] <= s_a[39] - s_a[29] + 1e-12)
        ok = ok and tail_ok and sq_ok
        details.append(f"{name}: kappa_tail={np.max(kappa[40:]):.3f} "
                       f"alpha_tail={np.max(alpha_dev[40:]):.4f}")
    _report("criterion 6 (asymptotics suite)", ok, "; ".join(details))


def test_criterion_7_kernel_identities():
    rng = np.random.default_rng(3)
    ok_sym = True
    for _ in range(25):
        lam = complex(rng.normal(scale=10), rng.normal())
        mu = complex(rng.normal(scale=10), rng.normal())
        x = rng.uniform(0.05, PI)
        a, b = kernel_D(x, lam, mu), kernel_D(x, mu, lam)
        ok_sym = ok_sym and abs(a - b) < 1e-9 * (1 + abs(a))
    ok_orth = abs(kernel_D(PI, 1.0, 4.0)) < 1e-12
    ok_zero = abs(kernel_D(PI, 0.0, 0.0) - PI) < 1e-12
    # kernel_D against the quotient on both sides of the main equation's near rule
    x, lam = 2.1, 5.0
    eps = EPS_D_BASE * (1 + 2 * np.sqrt(lam)) ** 2
    branch = []
    for d in (0.5 * eps, 2.0 * eps):
        mu = lam + d
        q = ((np.sqrt(lam) * np.sin(np.sqrt(lam) * x) * np.cos(np.sqrt(mu) * x)
              - np.sqrt(mu) * np.cos(np.sqrt(lam) * x) * np.sin(np.sqrt(mu) * x))
             / (lam - mu))
        branch.append(abs(kernel_D(x, lam, mu) - q))
    ok_branch = max(branch) < 1e-12
    h = 1e-4
    fd = (kernel_D(PI, 1.0, 1.0 + h) - kernel_D(PI, 1.0, 1.0 - h)) / (2 * h)
    ok_deriv = abs(kernel_D_derivs(PI, 1.0, 1.0, 0, 1) - fd) < 1e-6
    fd_l = (kernel_D(1.5, 3.0 + h, 7.0) - kernel_D(1.5, 3.0 - h, 7.0)) / (2 * h)
    ok_deriv = ok_deriv and abs(kernel_D_derivs(1.5, 3.0, 7.0, 1, 0) - fd_l) < 1e-6
    ok = ok_sym and ok_orth and ok_zero and ok_branch and ok_deriv
    _report("criterion 7 (kernel identities)", ok,
            f"symmetry={ok_sym}, D(pi,1,4)=0: {ok_orth}, D(pi,0,0)=pi: {ok_zero}, "
            f"branch={max(branch):.1e}, derivatives={ok_deriv}")


def test_criterion_8_truncation_bound(step_sd160):
    _, sd160 = step_sd160
    md = ModelData(0)
    consts = []
    for K in (20, 40, 80):
        sd2 = sd160.truncated(2 * K)
        ctx = MainEquationContext(sd2, md, 2 * K)
        ratios = []
        for x in (PI / 2, 0.9 * PI):
            sys2 = build_system(ctx, x)
            H2 = sys2.H
            H1 = H2.copy()
            H1[:, 2 * K:] = 0.0
            tail_norm = np.max(np.sum(np.abs(H2 - H1), axis=1))
            xi_tail = np.sqrt(np.sum(ctx.xi[K:2 * K] ** 2))
            ratios.append(tail_norm / xi_tail)
        consts.append(max(ratios))
    c = np.array(consts)
    ok = np.max(np.abs(c - c.mean())) <= 0.5 * c.mean()
    _report("criterion 8 (H truncation bound)", ok,
            f"fitted C at K=20,40,80: {c[0]:.2f}, {c[1]:.2f}, {c[2]:.2f}")


def _criterion_9_checks(table, contour):
    n_x = len(table.x_grid)
    return worst_mismatch(table, contour, ixs=(n_x // 3, n_x - 1), lam=contour.radius + 9.0 + 0.5j)


def test_criterion_9_residue_vs_quadrature(poly60_inversion):
    prob, sd, md, ctx, table = poly60_inversion
    contour = choose_contour(ctx)
    worst = _criterion_9_checks(table, contour)
    ok = worst < 1e-6
    _report("criterion 9 (residue vs quadrature, fixture 3)", ok,
            f"worst contour-term mismatch={worst:.2e} at N={contour.N}")


def test_criterion_10_degree_reduction(poly60_inversion):
    prob, sd, md, ctx, table = poly60_inversion
    lam_n1 = md.spectral_data(60).lam[1:]  # n = 2..60 > M1
    E = residue_sum(table.ctx, DATA, phi_model_dx, PI, table.phi[:, :, -1], lam=lam_n1)
    worst = float(np.max(np.abs(1.0 - E)))
    contour = choose_contour(ctx)
    _, diag = reconstruct_r1(table, contour)
    ok = worst < 1e-6 and diag["fit_residual"] < 1e-3
    _report("criterion 10 (degree reduction identity)", ok,
            f"max |E1(lam_n1)|={worst:.2e}, fit residual={diag['fit_residual']:.2e}")


def test_criterion_11_multiplicity_path():
    # engineer a double eigenvalue by tuning the constant boundary polynomial:
    # for sigma = 0, r1 = 1 and r2 = c, Delta(lam) = Delta'(lam) = 0 at
    # c* = -0.525405893 + 0.655712463i, lam* = 0.321149372 + 0.480310625i;
    # the seed is that double point to nine digits and fsolve polishes it
    seed = (-0.525405893 + 0.655712463j, 0.321149372 + 0.480310625j)

    def func(v):
        c = v[0] + 1j * v[1]
        lam = v[2] + 1j * v[3]
        prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([c]))
        h = 1e-6 * (1 + abs(lam))
        d0 = char_delta(prob, lam, 512)
        dp = char_delta(prob, lam + h, 512)
        dm = char_delta(prob, lam - h, 512)
        dd = (dp - dm) / (2 * h)
        return [d0.real, d0.imag, dd.real, dd.imag]

    # central differences with h = 1e-6 cannot reach xtol = 1e-13, so fsolve
    # stops early (ier = 5); the polish is judged by its residual instead
    sol, info, _, _ = fsolve(func, [seed[0].real, seed[0].imag, seed[1].real, seed[1].imag],
                             xtol=1e-13, full_output=True)
    assert np.max(np.abs(info["fvec"])) < 1e-9
    c = sol[0] + 1j * sol[1]
    lam_star = sol[2] + 1j * sol[3]
    prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([c]))

    # independent argument-principle oracle on a small circle
    th = np.exp(2j * PI * np.arange(512) / 512)
    z = lam_star + 0.05 * th
    vals = char_delta(prob, np.concatenate([z, z[:1]]), 512)
    wind = np.sum(np.angle(vals[1:] / vals[:-1])) / (2 * PI)
    count_ok = abs(wind - 2) < 1e-6

    # order-0/1 coefficients by circle quadrature through the forward solver
    eigs = weight_numbers(prob, find_eigenvalues(prob, 4, 512), 512)
    assert eigs.sizes[0] == 2
    alphas = eigs.alpha[:2]

    # synthetic dataset: the double replaces the first two model poles
    K = 20
    md = ModelData(0)
    base = md.spectral_data(K)
    lam = base.lam.copy()
    alph = base.alpha.copy()
    lam[0] = lam[1] = eigs.lam[0]
    alph[0], alph[1] = alphas
    sd = SpectralData.from_flat(lam, alph, m1=0, case="M1=M2")
    assert sd.sizes[0] == 2

    res = invert_spectral_data(sd, K=K, n_x=257)
    ctx = MainEquationContext(sd, md, K)
    table = solve_on_grid(sd, md, K, n_x=257, ctx=ctx)
    contour = choose_contour(ctx)
    worst9 = _criterion_9_checks(table, contour)
    # the identity is evaluable only where the model point does not coincide
    # with a data pole (the coincident terms are removable singularities)
    lam_n1 = md.spectral_data(K).lam
    clean = lam_n1[np.min(np.abs(lam_n1[:, None] - sd.lam[None, :]), axis=1) > 1e-6]
    E = residue_sum(table.ctx, DATA, phi_model_dx, PI, table.phi[:, :, -1], lam=clean)
    worst10 = float(np.max(np.abs(1.0 - E)))
    ok = count_ok and worst9 < 1e-6 and worst10 < 1e-6
    _report("criterion 11 (multiplicity path)", ok,
            f"winding={wind:.6f}, residue-vs-quadrature={worst9:.2e}, "
            f"E1 identity={worst10:.2e}; reconstruction (reported): "
            f"|sigma|={sigma_l2_norm(res.x_grid, res.sigma):.3f}, "
            f"r2={res.r2.coeffs[0]:.4f}")
