import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isturm import maineq
from isturm import (ModelData, build_system, integrate_solution, recover_phi, solve_on_grid,
                    solve_system, xi_chi)
from isturm._blas import openblas_handles
from isturm.errors import Singular
from isturm._util import sqrt_lambda
from isturm.maineq import MainEquationContext, solve_at_x
from isturm.model import RECURRENCE_SEPARATION
from isturm.spectral import SpectralData
from q_oracle import q_coefficients
from spectral_cases import shifted_model_data

PI = np.pi
rng = np.random.default_rng(7)


def test_build_system_model_data_is_trivial():
    md = ModelData(1)
    sd = md.spectral_data(8)
    sys = build_system(MainEquationContext(sd, md), 1.3)
    assert np.max(np.abs(sys.H)) < 1e-12
    assert np.max(np.abs(sys.psi_tilde[0::2])) < 1e-12
    # psi_{n1} = phi~_{n,1}(x): cos((n-2)x) beyond the double zero cluster
    np.testing.assert_allclose(sys.psi_tilde[1::2][2:],
                               np.cos(np.arange(1, 7) * 1.3), atol=1e-13)


def test_build_system_matches_hand_assembly():
    # K = 2 with one perturbed pole: compare against entries assembled one by
    # one from q_coefficients and the transform definition
    sd, md = shifted_model_data(2)
    x = 1.1
    xi, chi = xi_chi(sd, md)
    sys = build_system(MainEquationContext(sd, md), x)
    Q = {(n, i, k, j): q_coefficients(sd, md, x, n, i, k, j)
         for n in (1, 2) for i in (0, 1) for k in (1, 2) for j in (0, 1)}
    for n in (1, 2):
        for k in (1, 2):
            d0 = Q[(n, 0, k, 0)] - Q[(n, 1, k, 0)]
            d1 = Q[(n, 0, k, 1)] - Q[(n, 1, k, 1)]
            want = np.array([
                [chi[n - 1] * d0 * xi[k - 1], chi[n - 1] * (d0 - d1)],
                [Q[(n, 1, k, 0)] * xi[k - 1], Q[(n, 1, k, 0)] - Q[(n, 1, k, 1)]],
            ])
            got = sys.H[2 * n - 2:2 * n, 2 * k - 2:2 * k]
            np.testing.assert_allclose(got, want, atol=1e-12)


def _hand_assembly(sd, md, x, deriv=False):
    """H (H' with deriv) entry by entry from q_coefficients and the transform."""
    K = sd.K
    xi, chi = xi_chi(sd, md)
    Q = {(n, i, k, j): q_coefficients(sd, md, x, n + 1, i, k + 1, j, deriv=deriv)
         for n in range(K) for i in (0, 1) for k in range(K) for j in (0, 1)}
    H = np.empty((2 * K, 2 * K), dtype=complex)
    for n, k in np.ndindex(K, K):
        d0 = Q[n, 0, k, 0] - Q[n, 1, k, 0]
        d1 = Q[n, 0, k, 1] - Q[n, 1, k, 1]
        H[2 * n:2 * n + 2, 2 * k:2 * k + 2] = [
            [chi[n] * d0 * xi[k], chi[n] * (d0 - d1)],
            [Q[n, 1, k, 0] * xi[k], Q[n, 1, k, 0] - Q[n, 1, k, 1]]]
    return H


def _separated(c, x, delta):
    """A point mu above c with |mu - c| x^2 / (1 + x (|rho_c| + |rho_mu|)) = delta."""
    s = 1.0
    for _ in range(60):
        s = delta * (1 + x * (abs(sqrt_lambda(c)) + abs(sqrt_lambda(c + s)))) / x**2
    return c + s


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(K=st.integers(3, 8), M1=st.integers(0, 2), m=st.integers(1, 3),
       c=st.complex_numbers(max_magnitude=1.0), x=st.floats(1e-3, PI),
       straddle=st.floats(0.5, 2.0),
       shifts=st.lists(st.floats(0.05, 0.5), min_size=8, max_size=8))
def test_build_system_matches_hand_assembly_property(K, M1, m, c, x, straddle, shifts):
    # data: a size-m cluster at c, then every pole shifted off its model
    # partner, weights at least 0.1 from the model's (so chi <= 10), and one
    # pole at separation straddle * RECURRENCE_SEPARATION from the cluster
    # point (or from the model's zero cluster) at this x, where it stays within 30
    md = ModelData(M1)
    base = md.spectral_data(K)
    lam = base.lam + np.asarray(shifts[:K]) + 0.01 * np.arange(K)
    alpha = np.full(K, 2 / PI + 0.1, dtype=complex)
    lam[:m] = c
    alpha[:m] = [0.9 + 0.1j, 0.2 - 0.25j, 0.05 + 0.03j][:m]
    if m < K:
        pt = c if m > 1 else 0.0
        mu = _separated(pt, x, straddle * RECURRENCE_SEPARATION)
        if abs(mu - pt) <= 30:
            lam[m] = mu
    sd = SpectralData.from_flat(lam, alpha)
    assert sd.sizes[0] == m
    sys = build_system(MainEquationContext(sd, md), x)
    np.testing.assert_allclose(sys.H, _hand_assembly(sd, md, x), atol=1e-12)
    dH = _hand_assembly(sd, md, x, deriv=True)
    np.testing.assert_allclose(np.outer(sys.psi_tilde, sys.v), dH, atol=1e-12)
    sv = np.linalg.svd(dH, compute_uv=False)
    assert sv[1] <= 1e-14 * sv[0]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(K=st.integers(6, 8), M1=st.integers(0, 2), m=st.integers(1, 3),
       c=st.floats(-3.0, 3.0), low=st.floats(0.01, 2.0), straddle=st.booleans(),
       eps=st.floats(1e-5, 2e-4), x=st.floats(1e-3, PI),
       shifts=st.lists(st.floats(0.05, 0.5), min_size=8, max_size=8))
def test_build_system_real_data_property(K, M1, m, c, low, straddle, eps, x, shifts):
    # real data: lambda_1 = -low < 0 or, with straddle, the near pair
    # lambda_1 = -eps, lambda_(m+2) = +eps across 0; a real size-m cluster at c
    # with real weights; lambda_K = -2 low against a positive model pole; every
    # other pole shifted off its model partner
    md = ModelData(M1)
    lam = md.spectral_data(K).lam.real + np.asarray(shifts[:K]) + 0.01 * np.arange(K)
    alpha = np.full(K, 2 / PI + 0.1)
    lam[0] = -eps if straddle else -low
    lam[1:1 + m] = c
    alpha[1:1 + m] = [0.9, 0.2, 0.05][:m]
    if straddle:
        lam[1 + m] = eps
    lam[-1] = -2 * low
    sd = SpectralData.from_flat(lam, alpha)
    assume(sd.sizes == (1, m) + (1,) * (K - 1 - m))
    ctx = MainEquationContext(sd, md)
    assert ctx.dtype == np.float64
    sys = build_system(ctx, x)
    assert sys.H.dtype == sys.psi_tilde.dtype == sys.v.dtype == np.float64
    np.testing.assert_allclose(sys.H, _hand_assembly(sd, md, x), atol=1e-12)
    np.testing.assert_allclose(np.outer(sys.psi_tilde, sys.v),
                               _hand_assembly(sd, md, x, deriv=True), atol=1e-12)
    # the same data, sent down the complex path by a 1e-30 imaginary weight
    twin = build_system(MainEquationContext(
        SpectralData.from_flat(lam, alpha + 1e-30j), md), x)
    assert twin.H.dtype == np.complex128
    for name in ("psi_tilde", "dpsi_tilde", "H", "v"):
        np.testing.assert_allclose(getattr(sys, name), getattr(twin, name),
                                   rtol=1e-12, atol=1e-12, err_msg=name)


def test_complex_data_stays_complex():
    sd, md = shifted_model_data(5)
    sdc = SpectralData.from_flat(sd.lam, sd.alpha * (1 + 0.1j))
    sys = build_system(MainEquationContext(sdc, md), 1.3)
    assert sys.H.dtype == sys.psi_tilde.dtype == sys.v.dtype == np.complex128
    for data, dtype in ((sdc, np.complex128), (sd, np.float64)):
        table = solve_on_grid(data, md, 5, n_x=33)
        assert table.phi.dtype == table.dphi.dtype == table.weights.dtype == dtype


@pytest.mark.parametrize("x", [0.7, 2.6])
@pytest.mark.parametrize("M1", [1, 2])
@pytest.mark.parametrize("m", [2, 3], ids=["double", "triple"])
def test_q_blocks_match_scalar_oracle_clustered(m, M1, x):
    # the first m poles merge into one off-axis cluster (the clustered20 data
    # at K = 8); the model family keeps its own (M1+1)-fold zero cluster
    K = 8
    md = ModelData(M1)
    base = md.spectral_data(K)
    lam = base.lam.copy()
    alpha = base.alpha.copy()
    lam[:m] = 0.3 + 0.5j
    alpha[:m] = [0.9 + 0.1j, 0.2 - 0.25j, 0.05 + 0.03j][:m]
    sd = SpectralData.from_flat(lam, alpha)
    assert sd.sizes[0] == m
    Q, _, _ = MainEquationContext(sd, md, K).q_blocks(x)
    for (i, j), block in Q.items():
        want = [[q_coefficients(sd, md, x, n, i, k, j) for k in range(1, K + 1)]
                for n in range(1, K + 1)]
        # a batch shares one node count, scaled to its largest |rho|, so an
        # entry differs from the per-entry oracle by quadrature error (~1e-14)
        np.testing.assert_allclose(block, want, rtol=1e-12, atol=1e-13)


def test_entry_bound_pattern(step_sd40):
    # |H_{ni,kj}| <= C xi_k / (|n-k|+1): the fitted constant stays moderate
    _, sd = step_sd40
    md = ModelData(0)
    ctx = MainEquationContext(sd, md, 40)
    sys = build_system(ctx, PI / 3)
    K = 40
    n_idx = np.repeat(np.arange(K), 2).reshape(2 * K, 1)
    k_idx = np.repeat(np.arange(K), 2).reshape(1, 2 * K)
    xi_col = np.repeat(ctx.xi, 2).reshape(1, 2 * K)
    denom = xi_col / (np.abs(n_idx - k_idx) + 1)
    mask = denom > 1e-14
    C = np.abs(sys.H)[mask] / denom[mask]
    assert np.isfinite(C.max())
    assert C.max() <= 10 * np.median(C[C > 1e-3 * C.max()]) + 10


def test_solve_system_identity_when_H_zero():
    md = ModelData(0)
    sd = md.spectral_data(6)
    sys = build_system(MainEquationContext(sd, md), 0.7)
    psi, _, cond = solve_system(sys)
    np.testing.assert_allclose(psi, sys.psi_tilde, atol=1e-13)
    assert cond < 10


def test_solve_system_scalar_case():
    # (1 + h) psi = psi~ with a 1x1 block structure faked through K=1
    sd, md = shifted_model_data(1, shift=0.05)
    sys = build_system(MainEquationContext(sd, md), 1.0)
    psi, _, _ = solve_system(sys)
    want = np.linalg.solve(np.eye(2) + sys.H, sys.psi_tilde)
    np.testing.assert_allclose(psi, want, atol=1e-12)


def test_solve_system_vs_lu_oracle():
    # independent LU route on a well-conditioned random system
    sd, md = shifted_model_data(5)
    sys = build_system(MainEquationContext(sd, md), 2.0)
    psi, _, _ = solve_system(sys)
    A = np.eye(10) + sys.H
    lu, piv = scipy.linalg.lu_factor(A.copy())
    want = scipy.linalg.lu_solve((lu, piv), sys.psi_tilde.copy())
    np.testing.assert_allclose(psi, want, atol=1e-12)
    resid = np.max(np.abs(A @ psi - sys.psi_tilde))
    assert resid <= 1e-10 * max(np.max(np.abs(sys.psi_tilde)), 1e-30)


def test_solve_system_dpsi_vs_explicit_solve():
    # psi' from the rank-one update against a solve of the differentiated
    # system (E + H) psi' = psi_tilde' - H' psi with H' assembled entry by
    # entry, on simple data and on an off-axis double cluster against M1 = 1
    md = ModelData(1)
    base = md.spectral_data(8)
    lam, alpha = base.lam.copy(), base.alpha.copy()
    lam[:2] = 0.3 + 0.5j
    alpha[:2] = [0.9 + 0.1j, 0.2 - 0.25j]
    cases = [(shifted_model_data(5), 1.3), ((SpectralData.from_flat(lam, alpha), md), 2.6)]
    for (sd, md), x in cases:
        sys = build_system(MainEquationContext(sd, md), x)
        psi, dpsi, _ = solve_system(sys)
        rhs = sys.dpsi_tilde - _hand_assembly(sd, md, x, deriv=True) @ psi
        want = np.linalg.solve(np.eye(2 * sd.K) + sys.H, rhs)
        np.testing.assert_allclose(dpsi, want, atol=1e-12)


def test_solve_system_singular_raises():
    md = ModelData(0)
    sd = md.spectral_data(2)
    sys = build_system(MainEquationContext(sd, md), 0.9)
    bad = sys.__class__(K=sys.K, x=sys.x, psi_tilde=sys.psi_tilde,
                        H=-np.eye(4) + 1e-15 * sys.H,
                        dpsi_tilde=sys.dpsi_tilde, v=sys.v)
    # E + H is exactly zero here: the zero pivot is a Singular, with no SciPy
    # LinAlgWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Singular):
            solve_system(bad)


def test_condition_estimate_vs_exact(step_sd40):
    # the LU-based 1-norm estimate is a lower bound on the exact condition
    # number and, on these systems, within a factor of 10 of it
    _, step = step_sd40
    md0 = ModelData(0)
    cases = [(shifted_model_data(K), x) for K in (1, 5, 8) for x in (0.3, 1.0, 2.0, PI)]
    cases += [((step, md0), x) for x in (PI / 3, PI / 2, 2.9)]
    cases += [((ModelData(1).spectral_data(8), ModelData(1)), 1.3)]
    for (sd, md), x in cases:
        sys = build_system(MainEquationContext(sd, md, min(sd.K, 40)), x)
        _, _, est = solve_system(sys)
        exact = np.linalg.cond(np.eye(2 * sys.K) + sys.H, 1)
        assert exact / 10 <= est <= exact * (1 + 1e-12), (x, est, exact)


def test_solve_on_grid_restores_blas_threads(monkeypatch):
    handles = openblas_handles()
    assert handles, "no OpenBLAS library found in this process"
    original = [get() for get, _ in handles]
    for _, put in handles:  # a count that is neither 1 nor the default
        put(3)
    try:
        _check_blas_threads_restored(monkeypatch, handles)
    finally:
        for (_, put), n in zip(handles, original):
            put(n)


def _check_blas_threads_restored(monkeypatch, handles):
    before = [get() for get, _ in handles]
    assert before == [3] * len(handles)
    sd, md = shifted_model_data(4)
    seen = []
    real_solve = maineq.solve_system

    def spy(system, *args, **kwargs):
        seen.append([get() for get, _ in handles])
        return real_solve(system, *args, **kwargs)

    monkeypatch.setattr(maineq, "solve_system", spy)
    solve_on_grid(sd, md, 4, n_x=33)
    assert seen and all(counts == [1] * len(handles) for counts in seen)
    assert [get() for get, _ in handles] == before

    def fail(system, *args, **kwargs):
        raise Singular("forced")

    monkeypatch.setattr(maineq, "solve_system", fail)
    with pytest.raises(Singular):
        solve_on_grid(sd, md, 4, n_x=33)
    assert [get() for get, _ in handles] == before


def test_recover_phi_zero_xi():
    psi = np.array([0.3, 0.9, -0.1, 0.4])
    phi0, phi1 = recover_phi(psi, np.zeros(2))
    np.testing.assert_allclose(phi0, [0.9, 0.4])
    np.testing.assert_allclose(phi1, [0.9, 0.4])


def test_phi_at_zero_is_one():
    sd, md = shifted_model_data(6)
    ctx = MainEquationContext(sd, md, 6)
    p0, p1, _, _, _ = solve_at_x(ctx, 0.0)
    np.testing.assert_allclose(p0, np.ones(6), atol=1e-12)
    np.testing.assert_allclose(p1, np.ones(6), atol=1e-12)


def test_solve_on_grid_model_reproduces_cosines():
    md = ModelData(1)
    sd = md.spectral_data(8)
    table = solve_on_grid(sd, md, 8, n_x=65)
    xs = table.x_grid
    for n in range(3, 8):  # simple indices: cos((n-2) x)
        np.testing.assert_allclose(table.phi[n - 1, 1, :],
                                   np.cos((n - 2) * xs), atol=1e-12)


def test_solve_on_grid_derivative_consistency():
    sd, md = shifted_model_data(8)
    ctx = MainEquationContext(sd, md, 8)
    x0, h = 1.9, 1e-6
    p0, p1, d0, d1, _ = solve_at_x(ctx, x0)
    pp0, pp1, *_ = solve_at_x(ctx, x0 + h)
    pm0, pm1, *_ = solve_at_x(ctx, x0 - h)
    np.testing.assert_allclose(d0, (pp0 - pm0) / (2 * h), atol=1e-7)
    np.testing.assert_allclose(d1, (pp1 - pm1) / (2 * h), atol=1e-7)


def test_solve_on_grid_self_convergence():
    sd, md = shifted_model_data(40)
    t20 = solve_on_grid(sd.truncated(20), md, 20, n_x=33)
    t40 = solve_on_grid(sd, md, 40, n_x=33)
    diff = np.max(np.abs(t20.phi[:10, :, -1] - t40.phi[:10, :, -1]))
    assert diff < 1e-3


def test_roundtrip_phi_against_integrator(poly_sd40):
    # phi^K_{n,0}(x) from the solved system against direct integration at the
    # data eigenvalues
    prob, sd = poly_sd40
    md = ModelData(1)
    table = solve_on_grid(sd, md, 40, n_x=129)
    for n in range(10):
        tr = integrate_solution(prob.sigma, sd.lam[n], (1.0, 0.0), "ltr", 129)
        assert np.max(np.abs(table.phi[n, 0, :] - tr.y)) < 5e-3


def test_H_truncation_tail_decay(step_sd40):
    # || H^{K2} - H^{K1} || <= C sqrt(sum_{k>K1} xi_k^2)
    _, sd = step_sd40
    md = ModelData(0)
    ctx40 = MainEquationContext(sd, md, 40)
    sys40 = build_system(ctx40, PI / 2)
    H40 = sys40.H
    H20 = H40.copy()
    H20[:, 2 * 20:] = 0.0
    tail_norm = np.max(np.sum(np.abs(H40 - H20), axis=1))
    xi_tail = np.sqrt(np.sum(ctx40.xi[20:] ** 2))
    assert tail_norm <= 20 * xi_tail
    assert tail_norm > 0


def test_xi_chi_invariants(step_sd40):
    _, sd = step_sd40
    xi, chi = xi_chi(sd, ModelData(0))
    assert np.all(xi >= 0)
    prod = xi * chi
    assert np.all((np.abs(prod) < 1e-12) | (np.abs(prod - 1) < 1e-12))


def test_condition_bounded_in_K(step_sd40):
    _, sd = step_sd40
    md = ModelData(0)
    conds = []
    for K in (10, 20, 40):
        table = solve_on_grid(sd.truncated(K), md, K, n_x=17)
        conds.append(np.max(table.cond))
    assert max(conds) < 50
    assert max(conds) / min(conds) < 5
