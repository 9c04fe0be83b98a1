import mpmath
import numpy as np
import pytest

from isturm import ModelData, kernel_D
from isturm._util import (_phi_tower, cos_sqrt_taylor, gauss_legendre, phi_model, phi_model_dx,
                          sqrt_lambda)
from isturm.errors import OrderTooHigh
from isturm.model import (EPS_D_BASE, RECURRENCE_SEPARATION, SERIES_RADIUS, _kernel_D_recurrence,
                          _kernel_D_series, kernel_D_derivs_batch)
from isturm.spectral import SpectralData
from q_oracle import kernel_D_derivs, q_coefficients

PI = np.pi
rng = np.random.default_rng(11)


def test_model_data_closed_forms():
    md = ModelData(1)
    assert [md.lambda_tilde(n) for n in range(1, 6)] == [0, 0, 1, 4, 9]
    np.testing.assert_allclose([md.alpha_tilde(n) for n in range(1, 6)],
                               [1 / PI, 0, 2 / PI, 2 / PI, 2 / PI])


def test_model_phi_values():
    assert abs(phi_model(0, PI, 4.0) - 1.0) < 1e-14          # cos 2 pi
    assert abs(phi_model(0, PI / 3, 9.0) - (-1.0)) < 1e-14   # cos pi
    assert abs(phi_model(1, PI, 0.0) - (-PI**2 / 2)) < 1e-12


def test_model_phi_derivatives_vs_finite_difference():
    # lambda-derivative tower against central differences of cos(sqrt(lam) x)
    x = 1.7
    for lam0 in (3.0, 0.02, -1.5, 2 + 1j):
        h = 1e-5 * max(1, abs(lam0))
        f = lambda lam: np.cos(sqrt_lambda(lam) * x)
        fd1 = (f(lam0 + h) - f(lam0 - h)) / (2 * h)
        assert abs(phi_model(1, x, lam0) - fd1) < 1e-6
        fd2 = (f(lam0 + h) - 2 * f(lam0) + f(lam0 - h)) / h**2 / 2
        assert abs(phi_model(2, x, lam0) - fd2) < 1e-4


def _c_reference(j, w):
    # (1/j!) (d/dw)^j cos(sqrt(w)) as an mpmath Taylor coefficient
    with mpmath.workdps(40):
        return complex(mpmath.taylor(lambda z: mpmath.cos(mpmath.sqrt(z)),
                                     mpmath.mpc(complex(w)), j)[j])


@pytest.mark.parametrize("j", range(5))
def test_cos_sqrt_taylor_vs_mpmath(j):
    # entries inside and outside the series disks |sqrt(w)| < 1/2 and < 2,
    # with w = 0 and negative real w
    w = np.array([0, 0.1, -0.2, 0.05 + 0.1j, 0.2j, 0.3, -0.3, 0.26j, 1.0, -1.0,
                  3.0, 4.1, -3.9, -12.0, 20 + 5j, -4 + 8j])
    np.testing.assert_allclose(cos_sqrt_taylor(j, w), [_c_reference(j, v) for v in w],
                               rtol=1e-13)
    for w0 in (0.0, -0.3, 3.0):
        got = cos_sqrt_taylor(j, np.asarray(w0))
        assert got.shape == ()
        np.testing.assert_allclose(got, _c_reference(j, w0), rtol=1e-13)


def test_model_phi_dx_vs_finite_difference():
    lam = 2.4 - 0.7j
    for j in range(3):
        g = 1e-6
        fd = (phi_model(j, 1.2 + g, lam) - phi_model(j, 1.2 - g, lam)) / (2 * g)
        assert abs(phi_model_dx(j, 1.2, lam) - fd) < 1e-7


def test_kernel_D_orthogonality():
    assert abs(kernel_D(PI, 1.0, 4.0)) < 1e-13


def test_kernel_D_at_zero_zero():
    assert abs(kernel_D(PI, 0.0, 0.0) - PI) < 1e-13


def test_kernel_D_near_diagonal_vs_quadrature():
    # high-resolution trapezoid oracle for int_0^x cos^2(sqrt(lam) t) dt
    x, lam = 1.3, 2.7
    t = np.linspace(0, x, 100001)
    want = np.trapezoid(np.cos(np.sqrt(lam) * t) ** 2, t)
    for mu in (lam + 1e-9, lam - 1e-9):
        assert abs(kernel_D(x, lam, mu) - want) < 1e-10


def test_kernel_D_symmetry():
    for _ in range(12):
        lam = complex(rng.normal(scale=8), rng.normal())
        mu = complex(rng.normal(scale=8), rng.normal())
        x = rng.uniform(0.1, PI)
        a, b = kernel_D(x, lam, mu), kernel_D(x, mu, lam)
        assert abs(a - b) < 1e-10 * (1 + abs(a))


def test_kernel_D_branch_consistency():
    # far-quotient and near-Taylor branches agree across the switch zone
    x, lam = 2.1, 5.0
    eps = EPS_D_BASE * (1 + abs(lam))
    for d in (0.5 * eps, 2.0 * eps):
        mu = lam + d
        quotient = ((np.sqrt(lam) * np.sin(np.sqrt(lam) * x) * np.cos(np.sqrt(mu) * x)
                     - np.sqrt(mu) * np.cos(np.sqrt(lam) * x) * np.sin(np.sqrt(mu) * x))
                    / (lam - mu))
        assert abs(kernel_D(x, lam, mu) - quotient) < 1e-9


def test_kernel_D_outer_call_matches_broadcast_call():
    # an outer call takes its transcendentals on the vectors; it must agree
    # bit for bit with the same call on fully broadcast (n, m) inputs, on both
    # sides of the diagonal switch
    lam = np.concatenate([np.arange(8.0) ** 2, [0.0, -2.5, 3.1 + 0.4j],
                          rng.normal(scale=30, size=5) + 1j * rng.normal(size=5)])
    mu = np.concatenate([lam, lam[:6] + 1e-9, [1e-9, 49.0 - 2e-9j]])
    assert np.sum(np.abs(lam[:, None] - mu[None, :]) <= EPS_D_BASE) > len(lam)
    for x in (0.0, 0.37, 1.3, PI):
        outer = kernel_D(x, lam[:, None], mu[None, :])
        full = kernel_D(x, *np.broadcast_arrays(lam[:, None], mu[None, :]))
        assert outer.shape == (len(lam), len(mu))
        assert np.array_equal(outer, full)
        # entry by entry through 0-d calls: the same arithmetic, but NumPy's
        # scalar and vector loops may round differently in the last bits
        loop = np.array([[kernel_D(x, a, b) for b in mu] for a in lam])
        np.testing.assert_allclose(outer, loop, rtol=1e-13, atol=1e-300)


def test_kernel_D_derivs_order_zero_matches():
    x, lam, mu = 1.9, 3.3, 7.7
    assert abs(kernel_D_derivs(x, lam, mu, 0, 0) - kernel_D(x, lam, mu)) < 1e-12


def test_kernel_D_derivs_vs_finite_difference():
    x, lam, mu = PI, 1.0, 1.0
    h = 1e-4
    fd = (kernel_D(x, lam, mu + h) - kernel_D(x, lam, mu - h)) / (2 * h)
    assert abs(kernel_D_derivs(x, lam, mu, 0, 1) - fd) < 1e-6


def test_kernel_D_derivs_empty_interval():
    assert kernel_D_derivs(0.0, 1.0, 2.0, 1, 1) == 0


def test_kernel_D_derivs_order_cap():
    with pytest.raises(OrderTooHigh):
        kernel_D_derivs(1.0, 1.0, 1.0, 4, 0)


def test_kernel_D_derivs_batch_entry_independent_of_batch():
    # each entry sizes its quadrature from its own |rho_lam| + |rho_mu|, so an
    # entry computed alone equals its value in a batch whose other entries
    # have a 10x-40x larger |rho|, or share its orders and its node count
    x, lam, mu = 2.6, 2.0 + 0.5j, 3.0
    alone = kernel_D_derivs_batch(x, [lam], [1], [mu], [0])[0]
    for big in (30.0**2, 45.0**2 + 1j, 80.0**2):
        batch = kernel_D_derivs_batch(x, [big, lam, 2.5, 7.0], [1, 1, 1, 0],
                                      [big + 3, mu, 3.5, 9.0], [0, 0, 0, 1])
        assert batch[1] == alone
    lams = rng.uniform(-5, 3000, 40) + 1j * rng.uniform(-3, 3, 40)
    mus = rng.uniform(-5, 3000, 40) + 1j * rng.uniform(-3, 3, 40)
    jl, jm = rng.integers(0, 3, 40), rng.integers(0, 3, 40)
    batch = kernel_D_derivs_batch(1.7, lams, jl, mus, jm)
    for i in range(40):
        sl = slice(i, i + 1)
        assert kernel_D_derivs_batch(1.7, lams[sl], jl[sl], mus[sl], jm[sl])[0] == batch[i]


def test_q_coefficients_model_all_zero():
    md = ModelData(1)
    sd = md.spectral_data(6)  # data identical to the model
    for n in (1, 3):
        for i in (0, 1):
            for k in (1, 2, 4):
                for j in (0, 1):
                    # hat M = 0 termwise: data and model principal parts cancel
                    q0 = q_coefficients(sd, md, 1.1, n, i, k, 0)
                    q1 = q_coefficients(sd, md, 1.1, n, i, k, 1)
                    assert abs(q0 - q1) < 1e-12


def test_q_coefficients_diagonal_simple():
    md = ModelData(0)
    sd = md.spectral_data(5)
    x = 0.9
    k = 3
    lam_k = sd.lam[k - 1]
    rho = np.sqrt(lam_k.real)
    want = sd.alpha[k - 1] * (x / 2 + np.sin(2 * rho * x) / (4 * rho))
    got = q_coefficients(sd, md, x, k, 0, k, 1)
    assert abs(got - want) < 1e-12


def test_q_coefficients_vs_contour_quadrature():
    # independent oracle: residue of A(x, lam_ni, mu) at mu = lam_kj by circle
    # quadrature, one perturbed record
    md = ModelData(0)
    base = md.spectral_data(8)
    lam = base.lam.copy()
    lam[0] = lam[0] + 0.1
    sd = SpectralData.from_flat(lam, base.alpha)
    x = PI / 2

    def hatM(mu):
        out = np.zeros_like(mu)
        for i in range(sd.K):
            out = out + sd.alpha[i] / (mu - sd.lam[i]) - base.alpha[i] / (mu - base.lam[i])
        return out

    def Dk(lmb, mu):
        rl, rm = sqrt_lambda(lmb), sqrt_lambda(mu)
        return (rl * np.sin(rl * x) * np.cos(rm * x)
                - rm * np.cos(rl * x) * np.sin(rm * x)) / (lmb - mu)

    th = np.exp(2j * PI * (np.arange(256) + 0.5) / 256)
    # the contour can only isolate a family where the data and model poles
    # separate, i.e. at the perturbed record k = 1
    for (n, i, j) in [(2, 0, 0), (3, 1, 0), (2, 0, 1), (4, 0, 1), (1, 0, 0)]:
        lam_ni = sd.lam[n - 1] if i == 0 else base.lam[n - 1]
        lam_kj = sd.lam[0] if j == 0 else base.lam[0]
        z = lam_kj + 0.02 * th
        resid = np.mean(Dk(lam_ni, z) * hatM(z) * (z - lam_kj))
        want = resid if j == 0 else -resid  # family sign of the hatM poles
        got = q_coefficients(sd, md, x, n, i, 1, j)
        assert abs(got - want) < 1e-8
    # at a coincident pole the families cancel inside the full difference
    z = sd.lam[2] + 0.02 * th
    full = np.mean(Dk(sd.lam[1], z) * hatM(z) * (z - sd.lam[2]))
    fam_diff = (q_coefficients(sd, md, x, 2, 0, 3, 0)
                - q_coefficients(sd, md, x, 2, 0, 3, 1))
    assert abs(full - fam_diff) < 1e-8
    assert abs(full) < 1e-10


def test_model_fixed_point_phi():
    md = ModelData(1)
    xs = np.linspace(0, PI, 33)
    for n in (3, 4, 5):
        np.testing.assert_allclose(phi_model(0, xs, md.lambda_tilde(n)),
                                   np.cos((n - 2) * xs), atol=1e-14)


def _norm(j, x, lam):
    """L2(0, x) norm of phi_model(j, ., lam)."""
    t, w = gauss_legendre(400)
    return np.sqrt(x / 2 * np.sum(w * np.abs(phi_model(j, x / 2 * (t + 1), lam)) ** 2))


def _worst_error(method, x, lam, mu):
    """Largest error of method against kernel_D_derivs_batch over the orders
    a, b <= 2 of clusters, relative to ||phi_a(lam)|| ||phi_b(mu)|| on [0, x]."""
    a, b = (o.ravel() for o in np.indices((3, 3)))
    got = method(x, np.full(9, lam, dtype=complex), a, np.full(9, mu, dtype=complex), b)
    want = kernel_D_derivs_batch(x, np.full(9, lam), a, np.full(9, mu), b)
    return max(abs(g - w) / (_norm(i, x, lam) * _norm(j, x, mu))
               for g, w, i, j in zip(got, want, a, b))


def _recurrence(x, lams, a, mus, b):
    (tl, dtl), (tm, dtm) = _phi_tower(2, x, lams), _phi_tower(2, x, mus)
    return _kernel_D_recurrence(tl, dtl, tm, dtm, 1 / (lams - mus), a, b)


@pytest.mark.parametrize("x", [0.3, 1.7, PI])
def test_recurrence_threshold(x):
    # the top pole of a K = 60 spectrum against a point below it at
    # delta = |lam - mu| x^2 / (1 + x (|rho_lam| + |rho_mu|)): at the threshold
    # the recurrence meets 1e-13; a quarter of it loses more than 5e-13, so
    # the threshold is not loose by a factor of four
    lam = 3600.0

    def mu_at(delta):
        s = 1.0
        for _ in range(60):
            s = delta * (1 + x * (60 + np.sqrt(lam - s))) / x**2
        return lam - s

    assert _worst_error(_recurrence, x, lam, mu_at(RECURRENCE_SEPARATION)) <= 1e-13
    assert _worst_error(_recurrence, x, lam, mu_at(RECURRENCE_SEPARATION / 4)) > 5e-13


def test_kernel_series_matches_quadrature():
    # near pairs inside SERIES_RADIUS, the same point included
    r = np.sqrt(SERIES_RADIUS)
    for x, lam, mu in [(0.01, 0.0, 5e4), (0.3, 0.3 + 0.5j, 0.3 + 0.5j), (PI, 0.0, 0.9),
                       (2.0, -2.0 + 0.1j, -2.0), (1.0, r**2 * 1j, -r**2)]:
        assert _worst_error(_kernel_D_series, x, lam, mu) <= 1e-13
