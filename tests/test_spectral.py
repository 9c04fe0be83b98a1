import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isturm import (Polynomial, ProblemL, SigmaStep, SpectralData, detect_M1,
                    eval_partial_fraction, group_multiplicities, reduce_weyl, weyl_M,
                    weyl_M1)
from isturm._util import canonical_dumps
from isturm.errors import AmbiguousOffset, AtPole, DenominatorZero
from isturm.model import ModelData
from isturm.spectral import spectral_data_from_json, spectral_data_to_json

PI = np.pi


def test_group_multiplicities_model_pattern():
    heads, sizes = group_multiplicities([0, 0, 1, 4])
    assert heads == (0, 2, 3)
    assert sizes == (2, 1, 1)


def test_group_multiplicities_distinct():
    heads, sizes = group_multiplicities([1, 2, 3])
    assert heads == (0, 1, 2)
    assert all(v == 1 for v in sizes)


def test_group_multiplicities_triple():
    heads, sizes = group_multiplicities([1, 1, 1, 4])
    assert heads == (0, 3)
    assert sizes[0] == 3


def _simple_poles(rho):
    """SpectralData of simple poles at rho**2 that keeps the given rho signs."""
    n = len(rho)
    return SpectralData(lam=rho**2 + 0j, rho=rho + 0j, alpha=np.ones(n, dtype=complex),
                        heads=tuple(range(n)), sizes=(1,) * n)


def test_detect_M1_integer_offset():
    rho = np.arange(1, 31) - 2.0
    m1, case = detect_M1(_simple_poles(rho))
    assert (m1, case) == (1, "M1=M2")


def test_detect_M1_half_offset():
    rho = np.arange(1, 31) - 2.5
    m1, case = detect_M1(_simple_poles(rho))
    assert (m1, case) == (1, "M1=M2-1")


def test_detect_M1_ambiguous():
    rho = np.arange(1, 31) - 1.25
    with pytest.raises(AmbiguousOffset):
        detect_M1(_simple_poles(rho))


def test_detect_M1_forward_data(step_poly_sd40):
    _, sd = step_poly_sd40
    assert detect_M1(sd) == (1, "M1=M2")


def test_reduce_weyl_identity():
    m1 = lambda lam: 1.0 / (lam - 2.0)
    for lam in (0.3, 5 + 1j):
        assert abs(reduce_weyl(m1, Polynomial([1]), Polynomial([0]), lam)
                   - m1(np.asarray(lam))) < 1e-15


def test_reduce_weyl_rational():
    m1 = lambda lam: 1.0 / (lam - 2.0)
    # p1 = lam, p2 = 1: M = lam/(lam-2) / ((lam-1)/(lam-2)) = lam/(lam-1)
    for lam in (0.5, 3.0, 2.5 + 1j):
        got = reduce_weyl(m1, Polynomial([0, 1]), Polynomial([1]), lam)
        assert abs(got - lam / (lam - 1)) < 1e-12


_unit = st.floats(-1.0, 1.0)
_cplx = st.builds(complex, _unit, _unit)
_STEP_ROBIN = ProblemL(SigmaStep(0.7, 1.1), Polynomial([1]), Polynomial([0.5]))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(p1=st.lists(_cplx, min_size=1, max_size=2), p2=st.lists(_cplx, min_size=1, max_size=2),
       lam=st.builds(complex, st.floats(-20.0, 60.0), st.floats(0.5, 5.0)), lower=st.booleans())
def test_reduce_weyl_forward_oracle(p1, p2, lam, lower):
    # reduce_weyl(weyl_M1) == weyl_M for any p1, p2 of degree <= 1 off the
    # real axis; cases where p1 - p2 M cancels (a pole of M1) are skipped
    lam = lam.conjugate() if lower else lam
    p1, p2 = Polynomial(p1), Polynomial(p2)
    want = weyl_M(_STEP_ROBIN, lam, 256)
    a, b = p1(lam), p2(lam) * want
    assume(abs(a) > 0.1 and abs(a - b) > 0.1 * (abs(a) + abs(b)))
    got = reduce_weyl(lambda z: weyl_M1(_STEP_ROBIN, p1, p2, z, 256), p1, p2, lam)
    assert isinstance(got, complex)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_reduce_weyl_inverse_moebius():
    # solve M = p1 M1 / (1 + p2 M1) for M1 and compose back
    p1, p2 = Polynomial([1, 1]), Polynomial([2])
    m1 = lambda lam: 0.3 / (lam - 1.5) + 0.1
    for lam in (0.2, 4.4, 1 + 2j):
        m = reduce_weyl(m1, p1, p2, lam)
        from isturm.problem import poly_eval
        m1_back = m / (poly_eval(p1, lam) - poly_eval(p2, lam) * m)
        assert abs(m1_back - m1(np.asarray(lam))) < 1e-10


def test_reduce_weyl_denominator_zero():
    m1 = lambda lam: np.asarray(-1.0 + 0 * lam)
    with pytest.raises(DenominatorZero):
        reduce_weyl(m1, Polynomial([1]), Polynomial([1]), 1.0)


def test_partial_fraction_model_tail():
    md = ModelData(0)
    got = eval_partial_fraction(md.spectral_data(40), md, -1.0, 2000)
    want = -np.cosh(PI) / np.sinh(PI)  # closed form at rho = i
    assert abs(got - want) < 2e-3


def test_partial_fraction_single_record():
    sd = SpectralData.from_flat([2.0], [1.0])
    assert abs(eval_partial_fraction(sd, ModelData(0), 3.0, 1) - 1.0) < 1e-15


def test_partial_fraction_double_pole():
    sd = SpectralData.from_flat([0.0, 0.0], [0.0, 1.0])
    assert abs(eval_partial_fraction(sd, ModelData(0), 2.0, 2) - 0.25) < 1e-15


def test_partial_fraction_at_pole():
    sd = SpectralData.from_flat([2.0], [1.0])
    with pytest.raises(AtPole):
        eval_partial_fraction(sd, ModelData(0), 2.0 + 1e-10, 1)


def test_partial_fraction_vs_weyl_M(robin_sd25):
    prob, sd = robin_sd25
    lam = -2.0 + 1.0j  # distance >= 1 from the spectrum
    got = eval_partial_fraction(sd, ModelData(0), lam, 4000)
    want = weyl_M(prob, lam, 1024)
    assert abs(got - want) < 5.0 / 4000 + 2e-3  # tail-bound scale


@st.composite
def _spectral_data(draw):
    """SpectralData of 1..6 records 0.5 apart, multiplicities 1..3."""
    base = draw(st.lists(st.integers(-20, 400), min_size=1, max_size=6, unique=True))
    lams, alphas = [], []
    for n in base:
        lam = complex(n + draw(st.floats(0.0, 0.5)), draw(st.floats(-3.0, 3.0)))
        m = draw(st.integers(1, 3))
        lams += [lam] * m
        alphas += draw(st.lists(_cplx, min_size=m, max_size=m))
    return SpectralData.from_flat(lams, alphas, m1=draw(st.one_of(st.none(), st.integers(0, 2))),
                                  case=draw(st.sampled_from([None, "M1=M2", "M1=M2-1"])))


def _text(sd):
    return canonical_dumps(spectral_data_to_json(sd))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sd=_spectral_data())
def test_spectral_json_roundtrip(sd):
    # canonical spectral_data.json text is a fixed point of load and dump
    back = spectral_data_from_json(json.loads(_text(sd)))
    assert _text(back) == _text(sd)
    assert back.sizes == sd.sizes and np.array_equal(back.rho, sd.rho)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sd=_spectral_data(), data=st.data())
def test_truncation_keeps_clusters(sd, data):
    ends = [h + m for h, m in zip(sd.heads, sd.sizes)]
    for K in range(1, sd.K + 1):
        if K in ends:
            assert sd.truncated(K).K == K
        else:
            with pytest.raises(ValueError):
                sd.truncated(K)  # would split a cluster
    # truncating twice is truncating once
    a = data.draw(st.sampled_from(ends))
    b = data.draw(st.sampled_from([e for e in ends if e <= a]))
    assert _text(sd.truncated(a).truncated(b)) == _text(sd.truncated(b))
