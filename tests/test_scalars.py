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
from qortho.cli import run
from qortho.itensor import IndexGeometry
from qortho.rmatrix import inner_lift
from qortho.scalars import (DenominatorClass, ExponentOverflow, ParamSpace,
                            PoleAtOne, PoleAtPoint, Scalar, ScalarError,
                            ZeroInverse, _canon, _poly_to_json, canonical_q,
                            limit_r_to_1, merge_deformations, occurring_vars,
                            render_scalar, scalar_from_json, scalar_invert,
                            scalar_to_json, specialize, substitute)

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


# --- packed monomials --------------------------------------------------------

def test_exponent_bounds_on_encode():
    half = PS._half
    assert PS.s_pow(half - 1) * PS.s_pow(-half) == PS.s_pow(-1)
    for k in (half, -half - 1):
        with pytest.raises(ExponentOverflow):
            PS.s_pow(k)


def test_repeated_squaring_raises_and_never_wraps():
    x, e = PS.s, 1
    with pytest.raises(ExponentOverflow):
        while True:
            x, e = x * x, 2 * e
            assert x == PS.s_pow(e)
    assert 2 * e >= PS._half


@pytest.mark.parametrize("dim,pair", [(5, (1, 2)), (7, (1, 3)), (7, (2, 3))])
def test_g_field_overflow_next_to_zero_fields(dim, pair):
    # no carry out of, or borrow from, the s field (or a zero g field
    # above it) may turn an out-of-range g exponent into a valid monomial
    ps = ParamSpace(dim)
    half = ps._half
    top = ps.g_pow(pair, half - 1)
    with pytest.raises(ExponentOverflow):
        top * ps.g_pow(pair, 1)
    bottom = ps.g_pow(pair, -half)
    with pytest.raises(ExponentOverflow):
        bottom * ps.g_pow(pair, -1)
    with pytest.raises(ExponentOverflow):
        scalar_invert(bottom)
    with pytest.raises(ExponentOverflow):
        scalar_module.mono_inv(ps, ps._pack(ps.mono(g={pair: -half})))
    assert scalar_invert(top) == ps.g_pow(pair, 1 - half)


def test_cli_reports_an_exponent_overflow_with_exit_3(monkeypatch, capsys):
    # three value bits hold exponents -4..3; R at n=4 multiplies s^-2 by
    # s^-4
    monkeypatch.setattr(scalar_module, "_EXP_BITS", 3)
    assert run(["build-r", "--n", "4"]) == 3
    assert "exponent outside [-4, 3]" in capsys.readouterr().err


def test_scalars_over_different_parameter_spaces_do_not_mix(monkeypatch):
    assert ParamSpace(5) is ParamSpace(5)
    assert IndexGeometry(5).params is IndexGeometry(5, embedded=True).params
    small, big = ParamSpace(3), ParamSpace(5)
    fraction = scalar_invert(small.one + small.r)
    for x, y in [(small.s, big.s), (big.s, small.s), (fraction, big.s),
                 (big.s, fraction), (small.zero, big.s), (big.s, small.zero)]:
        with pytest.raises(ValueError, match="different parameter spaces"):
            x + y
        with pytest.raises(ValueError, match="different parameter spaces"):
            x * y
    # each field width gets its own layout
    monkeypatch.setattr(scalar_module, "_EXP_BITS", 3)
    narrow = ParamSpace(5)
    assert narrow is not big and narrow._half == 4 and big._half == 4096


def test_laurent_scalars_share_the_unit_denominator():
    ps = ParamSpace(5)
    one_den = ps._one_den
    g = ps.g_pow((1, 2), 1)
    x = ps.s + g
    lift = inner_lift(IndexGeometry(5, embedded=True))
    small = ParamSpace(3)
    laurent = [
        ps.zero, ps.one, x, -x, x + x, x - g, x * x,
        scalar_invert(g), (x * scalar_invert(ps.one + ps.r)) * (ps.one + ps.r),
        _canon(ps, {ps._pack((1, 2)): 3}, {ps._pack((1, 0)): 1}),
        scalar_from_json(ps, scalar_to_json(x)),
        merge_deformations(x), limit_r_to_1(x),
        substitute(x, [ps.mono(s=-1), ps.mono(g={(1, 2): -1})]),
        ps.from_rational(Fraction(1, 2)) * x,
    ]
    for a in laurent:
        assert a.den is one_den and a.is_laurent()
    lifted = lift(small.s + small.one)
    assert lifted.den is lifted.ps._one_den


def test_occurring_vars_and_specialize_agree():
    ps = ParamSpace(7)
    a = ps.monomial(1, ps.mono(2, {(2, 3): -1})) * scalar_invert(
        ps.one + ps.r)
    assert occurring_vars(a) == ["s", "g23"]
    assert occurring_vars(ps.one) == []
    assert specialize(a, {"s": 2, "g23": 3}) == Fraction(4, 3 * 5)


def test_poly_to_json_orders_by_exponent_tuple():
    ps = ParamSpace(5)
    monos = [(1, -1), (-1, 1), (0, 0), (-1, -1), (0, -2)]
    p = {ps._pack(m): 1 for m in monos}
    got = [tuple(rec["exponents"]) for rec in _poly_to_json(ps, p)]
    assert got == sorted(monos)
    # the packed keys order differently, so sorting them would be wrong
    assert [ps._unpack(m) for m in sorted(p)] != got


# --- differential check against tuple-keyed exponents ---------------------------

def ref_add(p1, p2):
    out = dict(p1)
    for m, c in p2.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(p1, p2):
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def decoded(ps, p):
    return {ps._unpack(m): c for m, c in p.items()}


def packed(ps, p):
    return {ps._pack(m): c for m, c in p.items()}


def laurent(ps, p):
    return Scalar(ps, packed(ps, p), ps._one_den) if p else ps.zero


SPACES = [ParamSpace(3), ParamSpace(5), ParamSpace(7)]   # 1, 2, 4 variables


def tuple_polys(ps, max_size=4, exps=st.integers(-6, 6)):
    mono = st.tuples(*[exps] * ps.nvars)
    return st.dictionaries(mono, st.integers(-4, 4).filter(bool),
                           max_size=max_size)


@st.composite
def laurent_pairs(draw):
    ps = draw(st.sampled_from(SPACES))
    return ps, draw(tuple_polys(ps)), draw(tuple_polys(ps))


@st.composite
def fractions(draw):
    # a numerator over (g-monomial) x (s-polynomial), as tuple dicts
    ps = draw(st.sampled_from(SPACES))
    num = draw(tuple_polys(ps))
    g = draw(st.tuples(*[st.integers(-3, 3)] * (ps.nvars - 1)))
    sexp = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3,
                         unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                           min_size=len(sexp), max_size=len(sexp)))
    den = {(e,) + g: c for e, c in zip(sexp, coeffs)}
    return ps, num, den


def ref_render(ps, p):
    def term(m, c):
        body = "*".join(v if e == 1 else "%s^%d" % (v, e)
                        for v, e in zip(ps.vars, m) if e)
        if not body:
            return str(c)
        return {1: body, -1: "-" + body}.get(c, "%s*%s" % (c, body))
    if not p:
        return "0"
    return " + ".join(term(m, p[m]) for m in sorted(p, reverse=True)
                      ).replace("+ -", "- ")


@settings(max_examples=150, deadline=None)
@given(laurent_pairs())
def test_packed_arithmetic_matches_tuple_reference(data):
    ps, p1, p2 = data
    a, b = laurent(ps, p1), laurent(ps, p2)
    assert decoded(ps, (a * b).num) == ref_mul(p1, p2)
    assert decoded(ps, (a + b).num) == ref_add(p1, p2)
    assert decoded(ps, (a - b).num) == ref_add(
        p1, {m: -c for m, c in p2.items()})
    assert render_scalar(a) == ref_render(ps, p1)
    js = scalar_to_json(a)
    assert [tuple(r["exponents"]) for r in js["num"]] == sorted(p1)
    assert scalar_from_json(ps, js) == a
    merged = {}
    for m, c in p1.items():
        key = (m[0] + 2 * sum(m[1:]),) + (0,) * (ps.nvars - 1)
        merged = ref_add(merged, {key: c})
    assert decoded(ps, merge_deformations(a).num) == merged


@settings(max_examples=150, deadline=None)
@given(fractions())
def test_canon_and_invert_match_tuple_reference(data):
    ps, num, den = data
    c = _canon(ps, packed(ps, num), packed(ps, den))
    cnum, cden = decoded(ps, c.num), decoded(ps, c.den)
    # num/den == cnum/cden, by cross-multiplication over tuple exponents
    assert ref_mul(num, cden) == ref_mul(cnum, den)
    assert all(not any(m[1:]) for m in cden) and min(m[0] for m in cden) == 0
    assert scalar_from_json(ps, scalar_to_json(c)) == c
    assert render_scalar(c) == (
        ref_render(ps, cnum) if c.is_laurent()
        else "(%s)/(%s)" % (ref_render(ps, cnum), ref_render(ps, cden)))
    # den itself is invertible: 1/den = inv.num/inv.den
    d = _canon(ps, packed(ps, den), ps._one_den)
    inv = scalar_invert(d)
    assert ref_mul(decoded(ps, inv.num), den) == decoded(ps, inv.den)
    if c:
        assert c * scalar_invert(d) * d == c
