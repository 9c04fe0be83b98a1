import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isturm import (ContourSpec, ModelData, choose_contour, coeff_error, dphi_K_dx,
                    integrate_solution, invert_spectral_data, phi_K_of_lambda, reconstruct_r1,
                    reconstruct_r2, reconstruct_sigma, sigma_l2_norm, solve_on_grid)
from isturm._util import phi_model, phi_model_dx
from isturm.maineq import MainEquationContext
from isturm.reconstruct import _g_factor, _pairing, default_lambda_samples
from isturm.spectral import SpectralData
from contour_oracle import BOTH, DATA, residue_sum, worst_mismatch
from spectral_cases import shifted_model_data

PI = np.pi


@pytest.fixture(scope="module")
def perturbed20():
    sd, md = shifted_model_data(20)
    return sd, solve_on_grid(sd, md, 20, n_x=129)


def _clustered(K, m):
    # the first m model poles merge into one cluster at an off-axis point; the
    # triple has two columns with derivative terms, the double one
    md = ModelData(0)
    base = md.spectral_data(K)
    lam = base.lam.copy()
    alpha = base.alpha.copy()
    lam[:m] = 0.3 + 0.5j
    alpha[:m] = [0.9 + 0.1j, 0.2 - 0.25j, 0.05 + 0.03j][:m]
    sd = SpectralData.from_flat(lam, alpha)
    assert sd.sizes[0] == m
    return sd, solve_on_grid(sd, md, K, n_x=129)


@pytest.fixture(scope="module", params=[2, 3], ids=["double", "triple"])
def clustered20(request):
    return request.param, _clustered(20, request.param)


def test_sigma_raw_is_the_per_node_residue_sum(poly_sd40, clustered20):
    # the one contraction of reconstruct_sigma over the weights the solve kept,
    # against the per-cluster residue loop at every node: real data with a
    # negative eigenvalue against the M1 = 1 model, and a complex cluster
    _, sd = poly_sd40
    _, (_, clustered) = clustered20
    for table in (solve_on_grid(sd, ModelData(1), 40, n_x=65), clustered):
        want = [-2.0 * residue_sum(table.ctx, BOTH, phi_model, x, table.phi[:, :, ix], offset=0.5)
                for ix, x in enumerate(table.x_grid)]
        np.testing.assert_allclose(reconstruct_sigma(table).raw, want, rtol=1e-13, atol=1e-13)


def test_phi_K_model_is_cosine():
    md = ModelData(0)
    sd = md.spectral_data(10)
    table = solve_on_grid(sd, md, 10, n_x=65)
    lam = 2.6 + 0.8j
    x = table.x_grid[40]
    got = phi_K_of_lambda(table, x, lam)
    from isturm._util import sqrt_lambda
    assert abs(got - np.cos(sqrt_lambda(lam) * x)) < 1e-12


def _check_interpolation(data, lo):
    # phi^K at a simple data pole reproduces that pole's table column
    sd, table = data
    ix = 64
    x = table.x_grid[ix]
    vals = phi_K_of_lambda(table, x, sd.lam[lo:lo + 6])
    np.testing.assert_allclose(vals, table.phi[lo:lo + 6, 0, ix], atol=1e-10)


def test_phi_K_interpolation_property(perturbed20):
    _check_interpolation(perturbed20, 2)


def test_phi_K_interpolation_property_clustered(clustered20):
    m, data = clustered20
    _check_interpolation(data, m)


def test_phi_K_matches_integrator_for_step_problem(step_sd40):
    prob, sd = step_sd40
    md = ModelData(0)
    table = solve_on_grid(sd, md, 40, n_x=129)
    lam_star = 2.3 + 0.7j
    tr = integrate_solution(prob.sigma, lam_star, (1.0, 0.0), "ltr", 129)
    for ix in (32, 64, 96):
        got = phi_K_of_lambda(table, table.x_grid[ix], lam_star)
        assert abs(got - tr.y[ix]) < 5e-3
    # truncation is weakest against the right endpoint
    got_pi = phi_K_of_lambda(table, table.x_grid[128], lam_star)
    assert abs(got_pi - tr.y[128]) < 2e-2


def test_dphi_K_model_value():
    md = ModelData(0)
    sd = md.spectral_data(10)
    table = solve_on_grid(sd, md, 10, n_x=65)
    lam = 3.1 - 0.5j
    x = table.x_grid[30]
    from isturm._util import sqrt_lambda
    rho = complex(sqrt_lambda(lam))
    got = dphi_K_dx(table, x, lam)
    assert abs(got - (-rho * np.sin(rho * x))) < 1e-12


def _check_dphi_fd(data):
    _, table = data
    x = table.x_grid[77]
    lam = 5.3 + 0.9j
    h = 1e-5
    fd = (phi_K_of_lambda(table, x + h, lam)
          - phi_K_of_lambda(table, x - h, lam)) / (2 * h)
    got = dphi_K_dx(table, x, lam)
    assert abs(got - fd) < 1e-6


def test_dphi_K_vs_finite_difference(perturbed20):
    _check_dphi_fd(perturbed20)


def test_dphi_K_vs_finite_difference_clustered(clustered20):
    _check_dphi_fd(clustered20[1])


def test_dphi_K_boundary_value_matches_sigma(perturbed20):
    # d/dx phi^K(0, lam) equals sigma^K(0) for every lam
    _, table = perturbed20
    sig = reconstruct_sigma(table)
    for lam in (2.2 + 1j, -1.7, 30.0):
        got = dphi_K_dx(table, 0.0, lam)
        assert abs(got - sig.raw[0]) < 1e-10


def test_reconstruct_sigma_model_zero():
    md = ModelData(1)
    sd = md.spectral_data(12)
    table = solve_on_grid(sd, md, 12, n_x=65)
    sig = reconstruct_sigma(table)
    assert sigma_l2_norm(table.x_grid, sig.values) < 1e-12


def test_reconstruct_r_model_fixed_point():
    for M1 in (0, 1, 2):
        md = ModelData(M1)
        sd = md.spectral_data(16)
        ctx = MainEquationContext(sd, md, 16)
        table = solve_on_grid(sd, md, 16, n_x=33, ctx=ctx)
        contour = choose_contour(ctx)
        r1, d1 = reconstruct_r1(table, contour)
        r2, d2 = reconstruct_r2(table, contour)
        want = np.zeros(M1 + 1)
        want[-1] = 1.0
        np.testing.assert_allclose(r1.as_array(), want, atol=1e-10)
        assert np.max(np.abs(r2.as_array())) < 1e-10


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_model_data_inverts_to_the_model(data):
    # the model problem's own data give sigma = 0, r1 = lam^M1, r2 = 0.  Over
    # all 342 (M1, K, n_x) of this draw space the worst errors are |sigma| 0,
    # r1 1.4e-11 (M1 = 2, K = 10) and r2 3.2e-26; the bounds leave 7x and 300x
    M1 = data.draw(st.sampled_from([0, 1, 2]), "M1")
    K = data.draw(st.integers(M1 + 2, 40), "K")
    n_x = data.draw(st.sampled_from([33, 65, 129]), "n_x")
    res = invert_spectral_data(ModelData(M1).spectral_data(K), n_x=n_x)
    assert np.max(np.abs(res.sigma)) <= 1e-14
    assert coeff_error(res.r1, np.eye(M1 + 1)[M1]) <= 1e-10
    assert coeff_error(res.r2, [0.0]) <= 1e-23


def test_contour_residue_vs_quadrature_sigma(perturbed20):
    assert worst_mismatch(perturbed20[1], ContourSpec(4), ixs=(32, 80)) < 1e-6


def test_contour_residue_vs_quadrature_sigma_clustered(clustered20):
    assert worst_mismatch(clustered20[1][1], ContourSpec(1), ixs=(32, 80)) < 1e-6


def test_contour_residue_vs_quadrature_r1_r2(perturbed20):
    # the r-integrands grow like exp(2 pi |Im rho|) on the circle, so the
    # 256-node match is meaningful only at small contour index
    contour = ContourSpec(3)
    assert worst_mismatch(perturbed20[1], contour, lam=contour.radius + 8.0 + 0.5j) < 1e-6


def test_contour_residue_vs_quadrature_r1_r2_clustered(clustered20):
    # covers the t >= 1 principal-part terms (t = 2 for the triple); at
    # N >= 2 rounding on the circle swamps the triple's r2 term
    contour = ContourSpec(1)
    assert worst_mismatch(clustered20[1][1], contour, lam=contour.radius + 8.0 + 0.5j) < 1e-6


class _Family:
    """Stands in for ModelData with a given second family, so that both
    families of a context carry clusters with higher-order alpha."""

    def __init__(self, sd):
        self.sd = sd

    def spectral_data(self, K):
        return self.sd.truncated(K)


def _two_clusters(K, double, triple, scale):
    # a double and a triple cluster among simple poles, with nonzero order-1
    # alpha in both and order-2 alpha in the triple; every alpha times scale
    lam = (np.arange(1, K + 1) + 0.3) ** 2 + 0j
    alpha = np.full(K, 2 / PI, dtype=complex)
    lam[1:3], alpha[1:3] = double, [0.7 + 0.2j, -0.3 + 0.4j]
    lam[5:8], alpha[5:8] = triple, [0.9 - 0.1j, 0.25 + 0.3j, -0.15 + 0.05j]
    sd = SpectralData.from_flat(lam, scale * alpha)
    assert sorted(sd.sizes)[-2:] == [2, 3]
    return sd


@pytest.mark.parametrize("x", [0.0, 0.9, 2.4, PI])
def test_residue_weights_match_cluster_loop(x):
    # the context's per-pole weights against the oracle's per-cluster loop:
    # both towers, both families and the data family alone, with and without lam
    K = 12
    ctx = MainEquationContext(_two_clusters(K, 2.1 + 0.4j, 6.3 - 0.5j, 1.0),
                              _Family(_two_clusters(K, 0.0, 11.2 + 0.3j, 0.8 - 0.3j)), K)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(K, 2)) + 1j * rng.normal(size=(K, 2))
    lam = np.array([3.7 + 1.1j, -2.5 + 0.2j, 40.0 - 3.0j])
    for tower, fn in enumerate((phi_model, phi_model_dx)):
        W = ctx.residue_weights(x, tower=tower)
        WL = ctx.residue_weights(x, lam, tower=tower)
        pairs = [(_pairing(ctx, W, values, 0.7),
                  residue_sum(ctx, BOTH, fn, x, values, offset=0.7)),
                 (WL[:, :K] @ values[:, 0] - WL[:, K:] @ values[:, 1],
                  residue_sum(ctx, BOTH, fn, x, values, lam=lam)),
                 (WL[:, :K] @ values[:, 0], residue_sum(ctx, DATA, fn, x, values, lam=lam))]
        for got, want in pairs:
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-13


def test_prefit_rational_vanishes_at_model_poles():
    # lem:degree mechanism: E1(lam_n1) = 0 with the solved phi^K values; all
    # data poles are shifted so the evaluation points stay off the spectrum
    K = 20
    md = ModelData(0)
    base = md.spectral_data(K)
    lam = base.lam + 0.2 / np.arange(1, K + 1)
    sd = SpectralData.from_flat(lam, base.alpha)
    table = solve_on_grid(sd, md, K, n_x=65)
    lam_n1 = md.spectral_data(K).lam[1:12]
    E = residue_sum(table.ctx, DATA, phi_model_dx, PI, table.phi[:, :, -1], lam=lam_n1)
    assert np.max(np.abs(1.0 - E)) < 1e-6


def test_fit_heldout_validation(poly_sd40):
    _, sd = poly_sd40
    md = ModelData(1)
    ctx = MainEquationContext(sd, md, 40)
    table = solve_on_grid(sd, md, 40, n_x=65, ctx=ctx)
    contour = choose_contour(ctx)
    samples = default_lambda_samples(ctx, contour, count=24)
    r1, diag = reconstruct_r1(table, contour, lam_samples=samples[::2])
    held = samples[1::2]
    E = residue_sum(table.ctx, DATA, phi_model_dx, PI, table.phi[:, :, -1], lam=held)
    vals = _g_factor(ctx, held) * (1.0 - E)
    resid_held = np.max(np.abs(np.polyval(r1.as_array()[::-1], held) - vals)) \
        / max(np.max(np.abs(vals)), 1e-9)
    assert resid_held <= 10 * max(diag["fit_residual"], 1e-12) + 1e-9


def test_choose_contour_covers_clusters(poly_sd40):
    _, sd = poly_sd40
    md = ModelData(1)
    ctx = MainEquationContext(sd, md, 40)
    spec = choose_contour(ctx)
    mds = md.spectral_data(40)
    for h, m in zip(mds.heads, mds.sizes):
        if m > 1:
            assert abs(mds.lam[h]) < spec.radius
    assert spec.N <= 38


def test_lambda_samples_off_poles(poly_sd40):
    _, sd = poly_sd40
    md = ModelData(1)
    ctx = MainEquationContext(sd, md, 40)
    spec = choose_contour(ctx)
    pts = default_lambda_samples(ctx, spec)
    assert len(pts) >= 2 * md.M1 + 2
    assert np.min(np.abs(pts[:, None] - ctx.lam[None, :])) >= 0.5
    assert np.all(np.abs(pts) > spec.radius)


def test_pole_on_the_contour_is_harmless():
    # lam_4 sits on its own contour |lam| = (N + 1/2)^2 = 12.25 (N = K - 2 = 3,
    # so no larger index is admissible); the sums run over the poles and the
    # fit samples keep their own distance, so the inversion is unaffected
    md = ModelData(0)
    base = md.spectral_data(5)
    lam = base.lam.copy()
    lam[0], lam[3] = -2.25, 12.25
    sd = SpectralData.from_flat(lam, base.alpha, m1=0)
    res = invert_spectral_data(sd, K=5, n_x=129)
    assert res.N == 3 and np.min(np.abs(np.abs(sd.lam) - 12.25)) == 0.0
    assert res.diagnostics["r1_fit_residual"] < 1e-10
    assert res.diagnostics["r2_fit_residual"] < 1e-10
    # another circle moves only the fit samples; the quadrature oracle, which
    # does integrate over the circle, refuses this one
    table = solve_on_grid(sd, md, 5, n_x=129)
    r2, _ = reconstruct_r2(table, ContourSpec(5))
    np.testing.assert_allclose(r2.as_array(), res.r2.as_array(), rtol=1e-12)
    with pytest.raises(ValueError, match="on the contour"):
        worst_mismatch(table, ContourSpec(res.N), ixs=(64,))


def test_invert_roundtrip_fixture(poly_sd40):
    prob, sd = poly_sd40
    res = invert_spectral_data(sd, K=40, n_x=129)
    assert res.m1 == 1
    np.testing.assert_allclose(res.r1.as_array(), [1, 1], atol=1e-4)
    np.testing.assert_allclose(res.r2.as_array(), [1, 0], atol=1e-4)
    assert sigma_l2_norm(res.x_grid, res.sigma) < 5e-3


def test_step_by_step_matches_invert_spectral_data(poly_sd40):
    # the lower-level API composes to the pipeline: each formula reads the
    # (data, model, K) triple from the table alone
    _, sd = poly_sd40
    res = invert_spectral_data(sd, K=40, n_x=129)
    md = ModelData(sd.m1)
    ctx = MainEquationContext(sd, md, 40)
    table = solve_on_grid(sd, md, 40, n_x=129, ctx=ctx)
    assert table.ctx is ctx
    contour = choose_contour(ctx)
    sigma = reconstruct_sigma(table)
    r1, diag1 = reconstruct_r1(table, contour)
    r2, diag2 = reconstruct_r2(table, contour)
    np.testing.assert_array_equal(sigma.values, res.sigma)
    assert r1.coeffs == res.r1.coeffs and r2.coeffs == res.r2.coeffs
    assert res.diagnostics == {
        "cond_max": float(np.max(table.cond)),
        "cond_median": float(np.median(table.cond)),
        "xi_tail_norm": float(np.sqrt(np.sum(ctx.xi[20:] ** 2))),
        "endpoint_defect": complex(sigma.raw[-1] - sigma.values[-1]),
        "r1_fit_residual": diag1["fit_residual"],
        "r2_fit_residual": diag2["fit_residual"],
        "bc_constant": diag2["bc_constant"],
        "N": contour.N,
        "K": 40,
    }
