import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from isturm import (ModelData, Polynomial, ProblemL, SigmaPolynomialInX, SigmaStep,
                    SigmaZero, char_delta, find_eigenvalues, group_multiplicities,
                    integrate_solution, weight_numbers, weyl_M)
from isturm import forward
from isturm._util import sqrt_lambda
from isturm.errors import NoConvergence, NonFiniteState
from isturm.forward import _BLOCK, _polish_simple, _propagate, _step_mesh
from isturm.maineq import MainEquationContext

PI = np.pi


def test_trace_cos():
    tr = integrate_solution(SigmaZero(), 1.0, (1.0, 0.0), "ltr", 256)
    np.testing.assert_allclose(tr.y, np.cos(tr.grid), atol=1e-13)
    np.testing.assert_allclose(tr.y_quasi, -np.sin(tr.grid), atol=1e-13)


def test_trace_linear():
    tr = integrate_solution(SigmaZero(), 0.0, (0.0, 1.0), "ltr", 64)
    np.testing.assert_allclose(tr.y, tr.grid, atol=1e-13)
    np.testing.assert_allclose(tr.y_quasi, np.ones_like(tr.grid), atol=1e-13)


def _step_oracle(h, a, lam, x):
    """Closed-form solution for sigma = h * Heaviside(x - a), init (1, 0).

    On each side the equation is -y'' = lam y; at the jump y is continuous and
    y' jumps by +h y(a) (equivalently the quasi-derivative is continuous)."""
    rho = complex(sqrt_lambda(lam))
    x = np.asarray(x, dtype=float)
    ya = np.cos(rho * a)
    dya = -rho * np.sin(rho * a) + h * np.cos(rho * a)  # y' just right of a
    s = x - a
    right_y = ya * np.cos(rho * s) + dya * _sinc_rho(rho, s)
    right_dy = -ya * rho * np.sin(rho * s) + dya * np.cos(rho * s)
    y = np.where(x <= a, np.cos(rho * x), right_y)
    dy = np.where(x <= a, -rho * np.sin(rho * x), right_dy)
    sig = np.where(x > a, h, 0.0)
    return y, dy - sig * y


def _sinc_rho(rho, s):
    if abs(rho) < 1e-12:
        return s
    return np.sin(rho * s) / rho


def test_trace_step_matches_glued_closed_form():
    h, a, lam = 1.0, PI / 2, 4.0
    tr = integrate_solution(SigmaStep(h, a), lam, (1.0, 0.0), "ltr", 257)
    y, yq = _step_oracle(h, a, lam, tr.grid)
    np.testing.assert_allclose(tr.y, y, atol=1e-12)
    np.testing.assert_allclose(tr.y_quasi, yq, atol=1e-12)


def test_trace_right_to_left():
    tr = integrate_solution(SigmaZero(), 4.0, (1.0, 0.0), "rtl", 128)
    # solution with y(pi)=1, y^[1](pi)=0 is cos(2(pi - x))
    np.testing.assert_allclose(tr.y, np.cos(2 * (PI - tr.grid)), atol=1e-12)


def test_trace_initial_data_exact():
    tr = integrate_solution(SigmaStep(0.5, 1.0), 2.3 + 1j, (0.7, -0.2j), "ltr", 65)
    assert tr.y[0] == 0.7 and tr.y_quasi[0] == -0.2j


def test_integration_overflow_raises():
    with pytest.raises(NonFiniteState):
        integrate_solution(SigmaZero(), -4.0e5, (1.0, 0.0), "ltr", 33)


# -- the Magnus step against its unhoisted definition -------------------------


def _A(s, lam):
    return np.array([[s, 1.0], [-s * s - lam, -s]], dtype=complex)


def _magnus4_elements(sigma, lam, mesh):
    """Per-step h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1] at the two Gauss nodes."""
    c = np.sqrt(3.0) / 6.0
    out = []
    for x0, x1 in zip(mesh[:-1], mesh[1:]):
        h = x1 - x0
        A1 = _A(complex(sigma(x0 + (0.5 - c) * h)), lam)
        A2 = _A(complex(sigma(x0 + (0.5 + c) * h)), lam)
        out.append(h / 2 * (A1 + A2) + np.sqrt(3.0) * h * h / 12 * (A2 @ A1 - A1 @ A2))
    return out


def _expm_product(sigma, lam, mesh):
    M = np.eye(2, dtype=complex)
    for omega in _magnus4_elements(sigma, lam, mesh):
        M = expm(omega) @ M
    return M


def _zero_exponent_lambda(sigma, mesh, step):
    """The lambda where -det(Omega) = u^2 vanishes on one step; u^2 is linear in lambda."""
    sl = mesh[step:step + 2]
    u2 = [-np.linalg.det(_magnus4_elements(sigma, lam, sl)[0]) for lam in (0.0, 1.0)]
    return -u2[0] / (u2[1] - u2[0])


@pytest.mark.parametrize("sigma", [SigmaZero(), SigmaStep(1.0, 1.0),
                                   SigmaPolynomialInX([0.3 - 0.2j, 1.0 + 0.5j, -0.4j])],
                         ids=["zero", "step", "poly-complex"])
@pytest.mark.parametrize("reverse", [False, True], ids=["ltr", "rtl"])
def test_propagate_matches_expm_of_magnus_elements(sigma, reverse):
    # plain uniform mesh: the jump at x = 1 falls inside a step, so the step
    # sigma has one step with s1 != s2 and a non-zero commutator
    mesh = np.linspace(0.0, PI, 65)
    if reverse:
        mesh = mesh[::-1]
    lams = [0.0, -9.0, 2.3 + 1j, 400.0, _zero_exponent_lambda(sigma, mesh, 20)]
    # both unit initial vectors per lambda, tiled so that the batch spans
    # several step blocks (_BLOCK // width steps each)
    reps = 100
    lam_b = np.tile(np.repeat(lams, 2), reps)
    y0 = np.tile([1.0, 0.0], len(lams) * reps)
    y, yq = _propagate(sigma, lam_b, y0, 1.0 - y0, mesh)
    assert _BLOCK // len(lam_b) < len(mesh) - 1
    for j, lam in enumerate(lams):
        want = _expm_product(sigma, lam, mesh)
        for r in (0, reps - 1):
            k = 2 * (r * len(lams) + j)
            got = np.array([[y[k], y[k + 1]], [yq[k], yq[k + 1]]])
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (lam, r)


def test_propagate_lambda_blocks_are_independent():
    # 2.5 blocks + 3 lambdas: the batch is cut into blocks of _BLOCK columns,
    # and each block must give what a call on it alone gives, bit for bit
    sigma = SigmaPolynomialInX([0.2, 0.7 - 0.3j])
    B = 5 * _BLOCK // 2 + 3
    rng = np.random.default_rng(5)
    lam = rng.uniform(-4.0, 400.0, B) + 1j * rng.uniform(-5.0, 5.0, B)
    y0 = rng.uniform(-1.0, 1.0, B) + 1j * rng.uniform(-1.0, 1.0, B)
    mesh = _step_mesh(sigma, 33)
    y, yq = _propagate(sigma, lam, y0, 0.5, mesh)
    cuts = [(0, _BLOCK), (_BLOCK, 2 * _BLOCK), (2 * _BLOCK, B)]
    parts = [_propagate(sigma, lam[a:b], y0[a:b], 0.5, mesh) for a, b in cuts]
    assert np.array_equal(y, np.concatenate([p[0] for p in parts]))
    assert np.array_equal(yq, np.concatenate([p[1] for p in parts]))


_unit = st.floats(-1.0, 1.0)
_cplx = st.builds(complex, _unit, _unit)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(coeffs=st.lists(_cplx, min_size=1, max_size=3),
       lam=st.builds(complex, st.floats(-4.0, 100.0), st.floats(-5.0, 5.0)),
       v0=st.tuples(_cplx, _cplx))
def test_propagate_round_trip_is_identity(coeffs, lam, v0):
    # the Magnus-4 element is time symmetric: over the reversed mesh the Gauss
    # nodes swap and h changes sign, so Omega -> -Omega and the way back
    # inverts the way out.  Rounding made on the way is magnified by at most
    # the condition number ||M||^2 of the propagator M (det M = 1).
    v0 = np.asarray(v0)
    assume(np.linalg.norm(v0) > 0.1)
    sigma = SigmaPolynomialInX(coeffs)
    mesh = _step_mesh(sigma, 33)
    y1, yq1 = _propagate(sigma, [lam] * 3, [v0[0], 1.0, 0.0], [v0[1], 0.0, 1.0], mesh)
    y2, yq2 = _propagate(sigma, lam, y1[0], yq1[0], mesh[::-1])
    cond = np.linalg.norm([[y1[1], y1[2]], [yq1[1], yq1[2]]], 2) ** 2
    err = np.linalg.norm([y2[0] - v0[0], yq2[0] - v0[1]])
    assert err <= 1e-10 * cond * np.linalg.norm(v0)


def _phi_at_pi(sigma, lam, n_x):
    """phi(pi, lam), phi^[1](pi, lam) for phi(0) = 1, phi^[1](0) = 0."""
    tr = integrate_solution(sigma, lam, (1.0, 0.0), "ltr", n_x)
    return tr.y[-1], tr.y_quasi[-1]


def test_phi_at_cos3():
    y, yq = _phi_at_pi(SigmaZero(), 9.0, 512)
    assert abs(y - np.cos(3 * PI)) < 1e-12
    assert abs(yq - (-3) * np.sin(3 * PI)) < 1e-10


def test_phi_at_lambda_zero():
    y, yq = _phi_at_pi(SigmaZero(), 0.0, 64)
    assert abs(y - 1) < 1e-13 and abs(yq) < 1e-13


def test_phi_at_self_convergence_sigma_x():
    # q = 1 via sigma = x: compare n_x against an 8x denser reference
    coarse = _phi_at_pi(SigmaPolynomialInX([0, 1]), 0.0, 512)
    fine = _phi_at_pi(SigmaPolynomialInX([0, 1]), 0.0, 4096)
    assert abs(coarse[0] - fine[0]) < 5e-9
    assert abs(coarse[1] - fine[1]) < 5e-9


def test_char_delta_neumann_eigenvalue():
    prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([0]))
    assert abs(char_delta(prob, 4.0, 512)) < 1e-12
    # closed form -rho sin(rho pi) away from the root
    lam = 2.7
    rho = np.sqrt(lam)
    assert abs(char_delta(prob, lam, 512) - (-rho * np.sin(rho * PI))) < 1e-12


def test_char_delta_model_triple_zero():
    prob = ProblemL(SigmaZero(), Polynomial([0, 1]), Polynomial([0]))
    lam = 2.7 + 0.4j
    rho = complex(sqrt_lambda(lam))
    want = -lam * rho * np.sin(rho * PI)
    assert abs(char_delta(prob, lam, 512) - want) < 1e-10 * abs(want)
    # zero of order M1 + 1 = 2 at the origin: Delta ~ -pi lam^2
    for eps in (1e-2, 1e-3):
        val = abs(char_delta(prob, eps, 512))
        assert PI * eps**2 / 2 < val < 2 * PI * eps**2


def test_char_delta_robin_bisection_oracle():
    # oracle: rho tan(rho pi) = 1 solved by bisection on the closed form
    rho_star = brentq(lambda r: r * np.tan(r * PI) - 1.0, 0.05, 0.49, xtol=1e-14)
    prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([1]))
    assert abs(char_delta(prob, rho_star**2, 1024)) < 1e-8


def test_find_eigenvalues_model():
    prob = ProblemL(SigmaZero(), Polynomial([0, 1]), Polynomial([0]))
    flat = find_eigenvalues(prob, 5, 512)
    np.testing.assert_allclose(flat, [0, 0, 1, 4, 9], atol=1e-8)
    assert group_multiplicities(flat)[1][0] == 2


def test_triple_zero_eigenvalue_and_weights():
    # r1 = lam^2 (M1 = 2): a zero of order 3 at the origin, found through the
    # three-root branch of the moment solve
    prob = ProblemL(SigmaZero(), Polynomial([0, 0, 1]), Polynomial([0]))
    flat = find_eigenvalues(prob, 6, 512)
    np.testing.assert_allclose(flat, [0, 0, 0, 1, 4, 9], atol=1e-12)
    sd = weight_numbers(prob, flat, 512)
    np.testing.assert_allclose(sd.alpha, [1 / PI, 0, 0, 2 / PI, 2 / PI, 2 / PI], atol=1e-9)


def test_huge_poly_sigma_raises_without_warnings():
    # the Horner loop overflows quietly (warnings are errors in this suite);
    # the sup|sigma| check gives the typed error
    prob = ProblemL(SigmaPolynomialInX([0, 1e308, 1e308]), Polynomial([1]), Polynomial([1]))
    with pytest.raises(NonFiniteState, match="too large"):
        find_eigenvalues(prob, 5)


def test_find_eigenvalues_neumann():
    prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([0]))
    flat = find_eigenvalues(prob, 4, 512)
    np.testing.assert_allclose(flat, [0, 1, 4, 9], atol=1e-9)


def test_find_eigenvalues_robin_vs_bisection():
    prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([1]))
    eigs = find_eigenvalues(prob, 3, 1024)
    # oracle: cot(rho pi) = rho per window
    f = lambda r: np.cos(r * PI) - r * np.sin(r * PI)
    want = [brentq(f, 1e-9, 0.5 - 1e-9, xtol=1e-14) ** 2,
            brentq(f, 1.0 + 1e-9, 1.5, xtol=1e-14) ** 2,
            brentq(f, 2.0 + 1e-9, 2.5, xtol=1e-14) ** 2]
    np.testing.assert_allclose(eigs, want, atol=1e-8)


def _closed_form_delta(lam, c, h, a=PI / 2):
    """Delta in mpmath for sigma = h on (a, pi) and 0 before, r1 = 1, r2 = c.

    On each piece the quasi-derivative system matrix A has A^2 = -lam I, so
    exp(A s) = cos(rho s) I + sin(rho s)/rho A; for h = 0 this gives
    Delta = c cos(rho pi) - rho sin(rho pi)."""
    rho = mpmath.sqrt(lam)
    s = mpmath.pi - a
    cs, sr = mpmath.cos(rho * s), mpmath.sin(rho * s) / rho
    ya, qa = mpmath.cos(rho * a), -rho * mpmath.sin(rho * a)
    y = (cs + h * sr) * ya + sr * qa
    q = -(h * h + lam) * sr * ya + (cs - h * sr) * qa
    return q + c * y


def _count_batches(monkeypatch):
    """List that gains one entry, the batch size, per char_delta batch of
    the forward module."""
    calls = []
    plain = forward.char_delta

    def counted(*args, **kwargs):
        calls.append(np.size(args[1]))
        return plain(*args, **kwargs)
    monkeypatch.setattr(forward, "char_delta", counted)
    return calls


@pytest.mark.parametrize("h, c, K, budget", [(1.0, 1.0, 60, 20), (0.0, 1.25 + 1.3j, 40, 30)],
                         ids=["step-robin-K60", "complex-K40"])
def test_find_eigenvalues_batch_budget(monkeypatch, h, c, K, budget):
    # the real path scans a grid, takes a few Illinois rounds, the master
    # count and the polish; the complex one polishes asymptotic seeds and
    # certifies them together, and subdivides only the low zone, counting
    # both halves of each split in one batch
    prob = ProblemL(SigmaStep(h, PI / 2) if h else SigmaZero(), Polynomial([1]), Polynomial([c]))
    calls = _count_batches(monkeypatch)
    lam = find_eigenvalues(prob, K, 1024)
    assert len(calls) <= budget
    assert group_multiplicities(lam)[1] == (1,) * K
    assert np.min(np.abs(lam[:, None] - lam[None, :]) + np.eye(K)) > 0.1
    with mpmath.workdps(30):
        for z in lam:
            ref = complex(mpmath.findroot(lambda w: _closed_form_delta(w, c, h), mpmath.mpc(z)))
            assert abs(z - ref) <= 1e-12 * abs(ref), (z, ref)


def test_find_eigenvalues_general_sigma_complex_certified(monkeypatch):
    prob = ProblemL(SigmaPolynomialInX([0, 1, 0.05]), Polynomial([1]), Polynomial([1.25 + 1.3j]))
    calls = _count_batches(monkeypatch)
    lam = find_eigenvalues(prob, 40, 1024)
    assert len(calls) <= 40
    assert group_multiplicities(lam)[1] == (1,) * 40
    # independent argument-principle check, as criterion 11 makes it: winding
    # number 1 on a 512-point circle of a third of the distance to the
    # nearest other root
    gap = np.min(np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(40, np.inf)), axis=1)
    z = lam[:, None] + gap[:, None] / 3 * np.exp(2j * PI * np.arange(513) / 512)
    vals = char_delta(prob, z.ravel(), 1024).reshape(z.shape)
    wind = np.sum(np.angle(vals[:, 1:] / vals[:, :-1]), axis=1) / (2 * PI)
    np.testing.assert_allclose(wind, 1.0, atol=1e-6)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(h=st.floats(-2.0, 2.0), xj=st.floats(0.2 * PI, 0.8 * PI), b=st.floats(-2.0, 2.0),
       K=st.integers(2, 12))
def test_find_eigenvalues_real_roots_change_sign(h, xj, b, K):
    # a real Robin problem with a step sigma: exactly K real eigenvalues,
    # and Delta changes sign across each simple one
    prob = ProblemL(SigmaStep(h, xj), Polynomial([1]), Polynomial([b]))
    lam = find_eigenvalues(prob, K, 256)
    heads, sizes = group_multiplicities(lam)
    assert sum(sizes) == K
    assert np.all(np.abs(lam.imag) <= 1e-12 * np.maximum(1.0, np.abs(lam)))
    simple = lam.real[[h for h, m in zip(heads, sizes) if m == 1]]
    eps = 1e-8 * np.maximum(1.0, np.abs(simple))
    d = np.real(char_delta(prob, np.concatenate([simple - eps, simple + eps]), 256))
    assert np.all(d[:len(simple)] * d[len(simple):] < 0)


def test_unclosed_brackets_are_dropped_to_the_seeded_path(monkeypatch):
    # with Illinois a no-op no bracket closes, so _real_roots returns none of
    # the roots, the master count sends the problem to the seeded path, and
    # that path finds the same K simple roots
    prob = ProblemL(SigmaStep(1.0, PI / 2), Polynomial([1]), Polynomial([1]))
    want = find_eigenvalues(prob, 20, 1024)
    monkeypatch.setattr(forward, "_illinois", lambda *args, **kwargs: None)
    got = find_eigenvalues(prob, 20, 1024)
    assert group_multiplicities(got)[1] == (1,) * 20
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12


@pytest.mark.parametrize("fallback", ["certificate-fails", "no-seeded-roots",
                                      "low-zone-mismatch", "master-nudged",
                                      "seeded-raises"])
def test_seeded_search_fallbacks_find_the_same_roots(monkeypatch, fallback):
    # a failed certificate moves its index and all below it into the low zone,
    # which box subdivision resolves; with no seeded roots, a seeded search
    # that raises, or a low-zone count that does not add up with the certified
    # roots, the whole master box is subdivided.  A master box without a clean
    # count is nudged outwards.  All give the roots of the unpatched search.
    prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([1.25 + 1.3j]))
    want = find_eigenvalues(prob, 12, 512)
    rejected = []
    if fallback == "certificate-fails":
        plain = forward._winds_once

        def reject_one(f, centers, radii):
            ok = plain(f, centers, radii)
            if not rejected:  # the first call certifies the seeded roots
                rejected.append(len(ok) // 2)
                ok[len(ok) // 2] = False
            return ok
        monkeypatch.setattr(forward, "_winds_once", reject_one)
    elif fallback == "no-seeded-roots":
        # list.append returns None: the seeded path never offers roots
        monkeypatch.setattr(forward, "_seeded_roots", lambda *args: rejected.append(0))
    elif fallback == "master-nudged":
        rejected = _nudged_master_counts(monkeypatch)
    elif fallback == "seeded-raises":
        def no_convergence(*args):
            rejected.append(0)
            raise NoConvergence("seeded search did not converge")
        monkeypatch.setattr(forward, "_seeded_roots", no_convergence)
    else:
        plain_count, plain_seeded = forward._box_count, forward._seeded_roots

        def off_by_one(f, boxes):  # the one count _seeded_roots makes: the low zone
            return [n + 1 for n in plain_count(f, boxes)]

        def seeded(*args):
            monkeypatch.setattr(forward, "_box_count", off_by_one)
            out = plain_seeded(*args)
            monkeypatch.setattr(forward, "_box_count", plain_count)
            if out is None:
                rejected.append(0)
            return out
        monkeypatch.setattr(forward, "_seeded_roots", seeded)
    got = find_eigenvalues(prob, 12, 512)
    assert rejected
    if fallback == "master-nudged":
        # the rejected count is the master box's (t_neg = 4, top_rho = 11.5),
        # and the one after it counts the nudged box, which holds it
        (master, none), (nudged, total) = rejected
        assert master == (-17.0, 11.5**2, -17.25, 17.25) and none is None
        assert nudged[0] < master[0] and nudged[1] > master[1] and total == 12
    assert group_multiplicities(got)[1] == (1,) * 12
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def _nudged_master_counts(monkeypatch):
    """List that gains (box, count) per master count of the forward module;
    the first count is rejected as not clean, so the master box is nudged."""
    seen = []
    plain = forward._master_count

    def unclean_once(prob, f, box):
        seen.append((box, plain(prob, f, box) if seen else None))
        return seen[-1][1]
    monkeypatch.setattr(forward, "_master_count", unclean_once)
    return seen


@pytest.mark.parametrize("sigma, r1, r2, K", [
    (SigmaStep(1.0, PI / 2), [1.0], [1.0], 30),
    (SigmaStep(1.0, PI / 2), [0.9, 1.0], [1.0], 30),
    (SigmaStep(1.0, PI / 2), [1.0, 0.5, 1.0], [1.0], 30),
    (SigmaZero(), [1.0], [0.7, 1.0], 12),
    (SigmaStep(1.0, PI / 2), [0.3, 1.0], [-0.5, 0.0, 1.0], 30),
], ids=["M1=M2=0", "M1=M2=1", "M1=M2=2", "M1=M2-1,M2=1", "M1=M2-1,M2=2"])
def test_master_count_against_the_model(monkeypatch, sigma, r1, r2, K):
    # on the master box and on a nudged one: the model's closed-form zero
    # count is the argument-principle count of Delta~ itself, and the model
    # count plus the winding of Delta / Delta~ is K.  In case M1 = M2 - 1 the
    # comparison is lam^M2 cos(rho pi); -rho sin(rho pi) gives no clean
    # winding on the sigma = 0, r2 = lam + 0.7 problem
    prob = ProblemL(sigma, Polynomial(r1), Polynomial(r2))
    model, model_count = forward._model(prob)
    plain = forward._master_count
    seen = _nudged_master_counts(monkeypatch)
    find_eigenvalues(prob, K, 512)
    assert len(seen) == 2
    for box, _ in seen:
        assert model_count(box) == forward._box_count(model, [box])[0]
        assert plain(prob, lambda z: char_delta(prob, z, 512), box) == K


def test_close_real_pair_takes_the_seeded_path(monkeypatch):
    # r1 = lam - 1.9^2 with a weak Robin coupling puts two real roots at
    # rho ~ 1.907 and 1.992, inside one step of the positive real scan: Delta
    # does not change sign across the step, the scan brackets K - 2 roots and
    # the seeded path finds all K, those of the 0.02 scan's brackets
    prob = ProblemL(SigmaStep(1.0, PI / 2), Polynomial([-1.9**2, 1.0]), Polynomial([-0.02]))
    seeded = []
    plain = forward._seeded_roots
    monkeypatch.setattr(forward, "_seeded_roots", lambda *args: seeded.append(1) or plain(*args))
    got = find_eigenvalues(prob, 8, 512)
    rho = np.sqrt(np.sort(got.real[got.real > 0]))
    step = np.floor((rho - 1e-4) / forward._SCAN_DRHO)
    assert np.any(np.diff(step) == 0) and seeded
    monkeypatch.setattr(forward, "_SCAN_DRHO", 0.02)
    seeded.clear()
    want = find_eigenvalues(prob, 8, 512)
    assert not seeded and np.all(want.imag == 0)
    assert group_multiplicities(got)[1] == (1,) * 8
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12


def test_step_k160_search_point_budget(monkeypatch):
    # the benchmark's `forward` step problem at seed 0, K = 160: the 0.25 scan
    # in rho, Illinois and the ratio count take about 2,450 lambda points,
    # where the 0.02 scan and a count of Delta's own winding took 13,743
    prob = ProblemL(SigmaStep(0.9291780450464647, 1.424743209941743),
                    Polynomial([1]), Polynomial([1]))
    calls = _count_batches(monkeypatch)
    lam = find_eigenvalues(prob, 160, 1024)
    assert group_multiplicities(lam)[1] == (1,) * 160
    assert sum(calls) <= 3000


@pytest.mark.parametrize("second", [100.0004, 100.0], ids=["distinct", "double"])
def test_analyze_group_splits_only_distinct_roots(second):
    # sqrt(100) and sqrt(100.0004) are 2e-5 apart, above the 1e-5 merge
    # tolerance, and each root winds once in its own circle: two simple roots.
    # A double root stays one root of multiplicity 2.
    def f(z):
        return (z - 100.0) * (z - second) * np.exp(0.01 * z)
    got = forward._analyze_group(f, [100.0 + 1e-6, second - 1e-6])
    got.sort(key=lambda t: t[0].real)
    want = [(100.0, 1), (second, 1)] if second != 100.0 else [(100.0, 2)]
    assert [m for _, m in got] == [m for _, m in want]
    assert max(abs(z - w) for (z, _), (w, _) in zip(got, want)) <= 1e-12


def test_polish_simple_flat_secant_takes_no_step():
    # near r = 2 the function is a staircase, flat over the first secant pair
    # (z0 and z1 = z0 (1 + 1e-7) + 1e-7 give f0 == f1 != 0); like char_delta
    # it raises on a point far off.  A second, smooth root must still polish.
    q, r = 1e-6, 2.0

    def f(z):
        if np.any(np.abs(z) > 1e6):
            raise NonFiniteState("secant step left the region")
        stair = 9.77e-15 + q * np.round((z - r).real / q)
        return np.where(z.real < 3.5, stair, (z - 5.0) * (z + 1.0))

    z, done = _polish_simple(f, [r + 1e-9, 5.1])
    assert abs(z[0] - r) < q
    assert abs(z[1] - 5.0) < 1e-13
    assert done.all()


def test_weight_numbers_model_m1():
    prob = ProblemL(SigmaZero(), Polynomial([0, 1]), Polynomial([0]))
    sd = weight_numbers(prob, find_eigenvalues(prob, 5, 512), 512)
    np.testing.assert_allclose(sd.alpha, [1 / PI, 0, 2 / PI, 2 / PI, 2 / PI], atol=1e-9)


def test_weight_numbers_neumann():
    prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([0]))
    sd = weight_numbers(prob, find_eigenvalues(prob, 4, 512), 512)
    np.testing.assert_allclose(sd.alpha, [1 / PI, 2 / PI, 2 / PI, 2 / PI], atol=1e-9)


def test_weight_numbers_robin_vs_closed_form_quadrature(robin_sd25):
    # oracle: 64-node circle quadrature of the closed-form Weyl function
    # M(lam) = (cos rp + sin rp / r) / (r sin rp - cos rp)
    _, sd = robin_sd25

    def m_closed(lam):
        r = sqrt_lambda(lam)
        return (np.cos(r * PI) + np.sin(r * PI) / r) / (r * np.sin(r * PI) - np.cos(r * PI))

    th = np.exp(2j * PI * (np.arange(64) + 0.5) / 64)
    for k in [0, 1, 5, 12]:
        rad = 0.25 * min(abs(sd.lam[k] - sd.lam[k - 1]) if k else abs(sd.lam[1] - sd.lam[0]),
                         abs(sd.lam[k + 1] - sd.lam[k]))
        z = sd.lam[k] + rad * th
        want = np.mean(m_closed(z) * (z - sd.lam[k]))
        assert abs(sd.alpha[k] - want) < 1e-6
        assert abs(sd.alpha[k] - 2 / PI) < 0.2  # kappa_n decay


def test_weight_numbers_exactly_real_for_real_problems(robin_sd25, poly_sd40, step_sd40):
    # a real problem's residues at its real poles are real: no rounding-level
    # imaginary part sends its data down the complex main equation; the one
    # negative eigenvalue of poly_sd40 and the M1 = 1 model zero included
    for _, sd in (robin_sd25, poly_sd40, step_sd40):
        assert not sd.lam.imag.any() and not sd.alpha.imag.any()
        assert MainEquationContext(sd, ModelData(sd.m1)).dtype == np.float64
    assert poly_sd40[1].lam[0].real < 0
    # a complex problem keeps complex weights at its real poles too
    prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([1.25 + 1.3j]))
    sd = weight_numbers(prob, find_eigenvalues(prob, 8, 512), 512)
    assert all(a.imag != 0 for a in sd.alpha)


def test_weight_check_fires_on_complex_pole_off_its_root():
    # the circle still encloses the root and returns its residue, but the
    # same-sample residue psi(0)/psi^[1]' is taken at the moved centre
    prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([1.25 + 1.3j]))
    lam = find_eigenvalues(prob, 8, 512)
    weight_numbers(prob, lam, 512)  # no warning at the roots themselves
    k = 3
    assert abs(lam[k].imag) > 0.1 and group_multiplicities(lam)[1][k] == 1
    lam[k] = lam[k] * (1 + 1e-6)
    with pytest.warns(UserWarning, match="weight number cross-check"):
        weight_numbers(prob, lam, 512)


def test_weyl_M_closed_form_value():
    prob = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([0]))
    val = weyl_M(prob, -1.0, 512)
    assert abs(val - (-1.0037418731973213)) < 1e-9  # -coth(pi)


def test_weyl_M_model_power_independent():
    p0 = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([0]))
    p1 = ProblemL(SigmaZero(), Polynomial([0, 1]), Polynomial([0]))
    assert abs(weyl_M(p0, -1.0, 512) - weyl_M(p1, -1.0, 512)) < 1e-10


def test_weyl_M_residue_definition(robin_sd25):
    prob, sd = robin_sd25
    lam_k = sd.lam[2]
    th = np.exp(2j * PI * np.arange(12) / 12)
    z = lam_k + 1e-3 * th
    vals = weyl_M(prob, z, 1024)
    np.testing.assert_allclose((z - lam_k) * vals, sd.alpha[2], atol=1e-4)


# -- invariants --------------------------------------------------------------


def test_wronskian_constancy():
    prob = ProblemL(SigmaStep(0.7, 1.1), Polynomial([1, 1]), Polynomial([2]))
    lam = 3.3 + 0.9j
    n_x = 1025
    phi = integrate_solution(prob.sigma, lam, (1.0, 0.0), "ltr", n_x)
    from isturm.problem import poly_eval
    psi = integrate_solution(prob.sigma, lam,
                             (poly_eval(prob.r1, lam), -poly_eval(prob.r2, lam)),
                             "rtl", n_x)
    w = psi.y * phi.y_quasi - phi.y * psi.y_quasi
    for ix in (0, n_x // 2, n_x - 1):
        assert abs(w[ix] - w[0]) < 1e-6 * abs(w[0])


def test_self_adjoint_real_spectrum(robin_sd25):
    _, sd = robin_sd25
    assert np.max(np.abs(sd.lam.imag)) < 1e-9
    assert np.max(np.abs(sd.alpha.imag)) < 1e-9
    assert np.all(sd.alpha.real > 0)


def test_asymptotics_k40(poly_sd40):
    _, sd = poly_sd40
    n = np.arange(1, 41)
    kappa = sd.rho - (n - 1 - 1)  # M1 = 1
    assert np.max(np.abs(kappa[20:])) < 0.1
    assert np.max(np.abs(kappa[20:30])) >= np.max(np.abs(kappa[30:])) - 1e-12
    assert np.max(np.abs(sd.alpha[20:] - 2 / PI)) < 0.05


def test_grid_convergence_smooth_sigma():
    prob = ProblemL(SigmaPolynomialInX([0, 1]), Polynomial([1]), Polynomial([0]))
    lams = {}
    for n_x in (256, 512, 1024):
        lams[n_x] = find_eigenvalues(prob, 6, n_x)
    e1 = np.max(np.abs(lams[256] - lams[1024]))
    e2 = np.max(np.abs(lams[512] - lams[1024]))
    assert e2 < e1 / 3.0  # at least second order


def test_delta_lower_bound_on_circles(poly_sd40):
    prob, _ = poly_sd40
    m1 = prob.m1
    ratios = []
    for n in range(5, 16):
        rho = (n + 0.5) * np.exp(1j * np.linspace(-PI / 2, PI / 2, 32, endpoint=False))
        lam = rho**2
        d = char_delta(prob, lam, 1024)
        tau = np.abs(rho.imag)
        ratios.append(np.min(np.abs(d) / (np.abs(rho) ** (2 * m1 + 1) * np.exp(PI * tau))))
    assert min(ratios) > 1e-3
