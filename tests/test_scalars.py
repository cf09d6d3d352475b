"""Exact Laurent arithmetic in s and the deformation parameters g_ab.

Everything is a fraction of integer-coefficient Laurent polynomials;
r = s^2 throughout.  Inversion is only defined when the numerator is a
single g-monomial times an s-polynomial, which is the class every
denominator produced by the constructions stays in.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qortho.scalars as scalar_module
from qortho.scalars import (DenominatorClass, ParamSpace, PoleAtOne,
                            PoleAtPoint, ScalarError, ZeroInverse, canonical_q,
                            limit_r_to_1, render_scalar, scalar_from_json,
                            scalar_invert, scalar_to_json, specialize)

PS = ParamSpace(4)


def g12():
    return PS.monomial(1, PS.mono(0, {(1, 2): 1}))


def test_param_layout():
    assert PS.vars == ["s", "g12"]
    assert ParamSpace(3).vars == ["s"]
    assert ParamSpace(5).vars == ["s", "g12"]
    assert ParamSpace(6).vars == ["s", "g12", "g13", "g23"]
    assert PS.series == "D" and ParamSpace(5).series == "B"


def test_basic_laurent_algebra():
    r = PS.r
    assert r + r == PS.monomial(2, PS.mono(2))
    lam = r - scalar_invert(r)
    assert lam == PS.s_pow(2) - PS.s_pow(-2)
    assert render_scalar(PS.s_pow(2) + PS.s_pow(2)) == "2*s^2"
    assert render_scalar(PS.s_pow(2) - PS.s_pow(-2)) == "s^2 - s^-2"
    assert not PS.zero
    assert PS.one and (PS.one - PS.one) == PS.zero


def test_invert_s_polynomial():
    x = PS.r + scalar_invert(PS.r)
    y = scalar_invert(x)
    assert x * y == PS.one
    assert y == PS.s_pow(2) * scalar_invert(PS.s_pow(4) + PS.one)


def test_invert_monomial_times_poly():
    x = g12() * (PS.one + PS.r)
    assert x * scalar_invert(x) == PS.one


def test_invert_rejects_mixed_g_rows():
    with pytest.raises(DenominatorClass):
        scalar_invert(PS.one + g12())
    with pytest.raises(ZeroInverse):
        scalar_invert(PS.zero)


def test_specialize():
    a = PS.r * scalar_invert(g12())
    assert specialize(a, {"s": 2, "g12": 3}) == Fraction(4, 3)
    with pytest.raises(ValueError):
        specialize(a, {"s": 2})
    with pytest.raises(ValueError):
        specialize(a, {"s": 0, "g12": 3})


def test_specialize_pole():
    b = scalar_invert(PS.one - PS.r)
    with pytest.raises(PoleAtPoint):
        specialize(b, {"s": 1})


def test_limit_r_to_1():
    lam = PS.s_pow(2) - PS.s_pow(-2)
    a = (PS.r - PS.one) * scalar_invert(lam)
    assert limit_r_to_1(a) == PS.monomial(Fraction(1, 2), PS.unit_mono)
    with pytest.raises(PoleAtOne):
        limit_r_to_1(scalar_invert(lam))
    kept = g12() * PS.s_pow(3)
    assert limit_r_to_1(kept) == g12()


def test_canonical_q_table():
    q = lambda a, b: canonical_q(PS, a, b)
    assert q(1, 2) == g12()
    assert q(2, 1) == PS.s_pow(4) * scalar_invert(g12())
    assert q(1, 3) == q(2, 1)          # primed column folds back
    assert q(3, 4) == q(2, 1)          # full reflection q_{a'b'} = q_{ba}
    assert q(1, 4) == PS.r             # antidiagonal
    assert q(1, 1) == PS.r             # diagonal
    for a in range(1, 5):
        for b in range(1, 5):
            assert q(a, b) * q(b, a) == PS.r * PS.r


def test_canonical_q_middle_index():
    ps = ParamSpace(5)
    for a in range(1, 6):
        assert canonical_q(ps, a, 3) == ps.r
        assert canonical_q(ps, 3, a) == ps.r


def test_json_round_trip():
    a = (PS.r + PS.one) * scalar_invert(g12() * (PS.s_pow(4) + PS.one))
    assert scalar_from_json(PS, scalar_to_json(a)) == a
    assert scalar_from_json(PS, scalar_to_json(PS.zero)) == PS.zero


# --- property tests ---------------------------------------------------------

def scalars(ps=PS):
    def build(pairs):
        acc = ps.zero
        for c, se, ge in pairs:
            acc = acc + ps.monomial(c, ps.mono(se, {(1, 2): ge}))
        return acc
    pair = st.tuples(st.integers(-3, 3).filter(bool),
                     st.integers(-4, 4), st.integers(-2, 2))
    return st.lists(pair, min_size=0, max_size=4).map(build)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_invertible_monomials_cancel(a):
    mono = PS.monomial(3, PS.mono(1, {(1, 2): -1}))
    assert (a * mono) * scalar_invert(mono) == a


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_specialize_is_a_homomorphism(a, b):
    point = {"s": Fraction(3), "g12": Fraction(5, 2)}
    assert specialize(a * b, point) == specialize(a, point) * specialize(b, point)
    assert specialize(a + b, point) == specialize(a, point) + specialize(b, point)


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_limit_is_additive_when_defined(a, b):
    try:
        la, lb = limit_r_to_1(a), limit_r_to_1(b)
    except PoleAtOne:
        return
    assert limit_r_to_1(a + b) == la + lb


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_json_respects_equality(a):
    assert scalar_from_json(PS, scalar_to_json(a)) == a


def test_canon_raises_when_the_gcd_leaves_a_remainder(monkeypatch):
    a = PS.s + PS.one
    inv = scalar_invert(a)
    real = scalar_module._uni_divmod

    def leaky(num, den):
        q, rem = real(num, den)
        if sys._getframe(1).f_code.co_name == "_canon":
            rem = {0: 1}
        return q, rem

    monkeypatch.setattr(scalar_module, "_uni_divmod", leaky)
    with pytest.raises(ScalarError):
        a * inv
