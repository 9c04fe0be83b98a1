import cmath
import json

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from isturm import (Polynomial, ProblemL, SigmaGridSamples, SigmaPolynomialInX,
                    SigmaStep, SigmaZero, normalize_pair, poly_eval,
                    poly_gcd_degree, problem_from_json, problem_to_json)
from isturm._util import canonical_dumps
from isturm.errors import BothZero, NotCoprime
from isturm.problem import ZERO_RTOL, FullProblem

rng = np.random.default_rng(20240817)


def test_poly_eval_monomial():
    assert poly_eval(Polynomial([0, 0, 1]), 2.0) == 4.0


def test_poly_eval_constant():
    assert poly_eval(Polynomial([1]), 7 + 3j) == 1.0


def test_poly_eval_root():
    assert poly_eval(Polynomial([-2, 1]), 2.0) == 0.0


def test_poly_eval_linearity():
    for _ in range(20):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        lam = complex(rng.normal(), rng.normal())
        s = poly_eval(Polynomial(a + b), lam)
        assert abs(s - poly_eval(Polynomial(a), lam) - poly_eval(Polynomial(b), lam)) \
            < 1e-12 * (1 + abs(s))


def test_poly_degree_and_trim():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree() == 1
    assert Polynomial([0, 0]).is_zero


def test_gcd_degree_common_root():
    p = Polynomial(np.convolve([-1, 1], [-2, 1]))  # (lam-1)(lam-2)
    q = Polynomial([-1, 1])
    assert poly_gcd_degree(p, q) == 1


def test_gcd_degree_coprime():
    assert poly_gcd_degree(Polynomial([0, 1]), Polynomial([1])) == 0


def test_gcd_degree_equal():
    p = Polynomial([1, 0, 1])
    assert poly_gcd_degree(p, p) == 2


def test_normalize_pair_scales_leading():
    r1, r2, case = normalize_pair(Polynomial([3, 3]), Polynomial([3]))
    assert case == "M1=M2"
    np.testing.assert_allclose(r1.as_array(), [1, 1])
    np.testing.assert_allclose(r2.as_array(), [1])


def test_normalize_pair_trivial():
    r1, r2, case = normalize_pair(Polynomial([1]), Polynomial([0]))
    assert case == "M1=M2"
    np.testing.assert_allclose(r1.as_array(), [1])
    assert r2.is_zero


def test_normalize_pair_second_branch():
    r1, r2, case = normalize_pair(Polynomial([2]), Polynomial([0, 2]))
    assert case == "M1=M2-1"
    np.testing.assert_allclose(r1.as_array(), [1])
    np.testing.assert_allclose(r2.as_array(), [0, 1])


def _normalized(r1, r2):
    """normalize_pair's result, or the type of the error it raises."""
    try:
        return normalize_pair(r1, r2)
    except (BothZero, NotCoprime) as exc:
        return type(exc)


_small_int = st.integers(-3, 3)
_gauss_int_coeffs = st.lists(st.builds(complex, _small_int, _small_int), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(r1=_gauss_int_coeffs, r2=_gauss_int_coeffs,
       scale=st.builds(lambda e, t: 10.0**e * cmath.exp(1j * t), st.floats(-12.0, 12.0),
                       st.floats(0.0, 2 * np.pi)))
def test_normalize_pair_idempotent(r1, r2, scale):
    # normalizing twice changes no bit, and a common factor changes nothing
    # beyond rounding (the boundary conditions are homogeneous)
    r1, r2 = Polynomial(r1), Polynomial(r2)
    base = _normalized(r1, r2)
    scaled = _normalized(r1.scaled(scale), r2.scaled(scale))
    if isinstance(base, type):
        assert scaled is base
        return
    n1, n2, case = base
    assert (n1 if case == "M1=M2" else n2).coeffs[-1] == 1.0  # exactly
    m1, m2, case_m = normalize_pair(n1, n2)
    assert case_m == case and m1 == n1 and m2 == n2
    s1, s2, case_s = scaled
    assert case_s == case
    for a, b in ((n1, s1), (n2, s2)):
        assert len(a.coeffs) == len(b.coeffs)
        np.testing.assert_allclose(b.as_array(), a.as_array(), rtol=1e-13, atol=1e-13)


_coeff = st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
_float_coeffs = st.lists(_coeff, min_size=1, max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(p=_float_coeffs, q=_float_coeffs, pad=st.integers(0, 3))
def test_polynomial_padded_arithmetic_and_trim(p, q, pad):
    P, Q = Polynomial(p), Polynomial(q)
    # trimming is idempotent, and trailing zeros are trimmed away
    assert Polynomial(P.coeffs) == P
    assert Polynomial(list(p) + [0.0] * pad) == P
    # (p + q) - q is p to rounding, up to the relative deflation of the sum
    scale = np.max(np.abs(P.as_array())) + np.max(np.abs(Q.as_array()))
    err = np.max(np.abs(((P + Q) - Q - P).as_array()))
    assert err <= ZERO_RTOL * scale + 1e-15 * scale


def test_small_constant_is_not_a_common_factor():
    # a nonzero constant shares no factor with anything, however small it is
    # against the other polynomial's coefficients
    assert poly_gcd_degree(Polynomial([1, 1e12]), Polynomial([1e-3])) == 0
    r1, r2, case = normalize_pair(Polynomial([1, 1e12]), Polynomial([1e-3]))
    assert case == "M1=M2" and r1.coeffs[-1] == 1.0
    doc = {"sigma": {"kind": "zero"}, "r1": [[1.0, 0.0], [1e308, 0.0]], "r2": [[0.0, 0.5]]}
    assert problem_from_json(doc).inner.case == "M1=M2"


def test_normalize_pair_errors():
    with pytest.raises(BothZero):
        normalize_pair(Polynomial([0]), Polynomial([0]))
    with pytest.raises(NotCoprime):
        normalize_pair(Polynomial([-1, 1]), Polynomial(np.convolve([-1, 1], [1, 1])))


def test_problem_degrees_padding():
    prob = ProblemL(SigmaZero(), Polynomial([1, 1]), Polynomial([1]))
    assert prob.case == "M1=M2"
    assert prob.m1 == 1 and prob.m2 == 1
    prob2 = ProblemL(SigmaZero(), Polynomial([1]), Polynomial([0, 1]))
    assert prob2.case == "M1=M2-1"
    assert prob2.m1 == 0 and prob2.m2 == 1


def test_sigma_forms():
    x = np.linspace(0, np.pi, 7)
    assert np.all(SigmaZero()(x) == 0)
    st = SigmaStep(2.0, np.pi / 2)
    assert st(0.3) == 0 and st(3.0) == 2.0
    assert st.breakpoints() == (np.pi / 2,)
    po = SigmaPolynomialInX([0, 1])
    np.testing.assert_allclose(np.real(po(x)), x)
    gr = SigmaGridSamples(np.sin(np.linspace(0, np.pi, 101)))
    assert abs(gr(1.0) - np.sin(1.0)) < 1e-3
    with pytest.raises(ValueError):
        SigmaGridSamples([1.0])


_sigma = st.one_of(st.just(SigmaZero()), st.builds(SigmaStep, _coeff, st.floats(0.01, 3.13)),
                   st.builds(SigmaPolynomialInX, st.lists(_coeff, min_size=1, max_size=3)),
                   st.builds(SigmaGridSamples, st.lists(_coeff, min_size=2, max_size=6)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sigma=_sigma, r1=_float_coeffs, r2=_float_coeffs, p1=_float_coeffs, p2=_float_coeffs)
def test_problem_json_roundtrip(sigma, r1, r2, p1, p2):
    # canonical problem.json text is a fixed point of load and dump
    try:
        full = FullProblem(Polynomial(p1), Polynomial(p2),
                           ProblemL(sigma, Polynomial(r1), Polynomial(r2)))
    except (BothZero, NotCoprime):
        reject()
    text = canonical_dumps(problem_to_json(full))
    back = problem_from_json(json.loads(text))
    assert canonical_dumps(problem_to_json(back)) == text
    assert back.inner.sigma.kind == sigma.kind
