"""Exact Laurent arithmetic in s and the deformation parameters g_ab.

Everything is a fraction of integer-coefficient Laurent polynomials;
r = s^2 throughout.  Inversion is only defined when the numerator is a
single g-monomial times an s-polynomial, which is the class every
denominator produced by the constructions stays in.
"""

import functools
import re
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import qortho.scalars as scalar_module
from qortho.cli import run
from qortho.itensor import IndexGeometry
from qortho.rmatrix import inner_lift
from qortho.scalars import (DenominatorClass, ExponentOverflow, ParamSpace,
                            PoleAtOne, PoleAtPoint, Scalar, ScalarError,
                            SchemaError, ZeroInverse, _acc, _canon,
                            _poly_to_json, canonical_q, common_denominator,
                            laurent_numerator, laurent_scalar, limit_r_to_1,
                            merge_deformations, occurring_vars,
                            poly_add, poly_mul, render_scalar,
                            scalar_from_json, scalar_invert, scalar_to_json,
                            specialize, substitute, sum_products, tag_fold,
                            tag_split, tagged_mul_acc)

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
    a = PS.monomial(2, PS.mono(1)) + PS.one
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


# --- cyclotomic cancellation against a Euclid-only reference ------------------

# Phi_m(s) for m <= 12, lowest degree first
PHI = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 5: (1,) * 5,
       6: (1, -1, 1), 7: (1,) * 7, 8: (1, 0, 0, 0, 1),
       9: (1, 0, 0, 1, 0, 0, 1), 10: (1, -1, 1, -1, 1), 11: (1,) * 11,
       12: (1, 0, -1, 0, 1)}


def ref_canon(ps, num, den):
    """_canon as it was before the cyclotomic strip: one Fraction Euclid of
    the denominator against every numerator row."""
    S = scalar_module
    if not num:
        return ps.zero
    width, smask, half = ps._width, ps._smask, ps._half
    gparts = {m >> width for m in den}
    assert len(gparts) == 1
    gpart = gparts.pop()
    if gpart != ps._bias >> width:
        num = S.poly_mul(ps, num, {S.mono_inv(ps, gpart << width | half): 1})
    dser = {(m & smask) - half: c for m, c in den.items()}
    sshift = min(dser)
    dser = {e - sshift: c for e, c in dser.items()}
    rows = {g: (min(row), {e - min(row): c for e, c in row.items()})
            for g, row in S._poly_rows(ps, num).items()}
    h = dser
    for base, row in rows.values():
        h = S._uni_gcd(h, row)
    if max(h) > 0:
        dser, rem = S._uni_divmod(dser, h)
        assert not rem
        for g, (base, row) in rows.items():
            q, rem = S._uni_divmod(row, h)
            assert not rem
            rows[g] = (base, q)
    lc = dser[max(dser)]
    dser = {e: Fraction(c, 1) / lc for e, c in dser.items()}
    out = {}
    for g, (base, row) in rows.items():
        for e, c in row.items():
            out[g << width | ps._field(base + e - sshift)] = Fraction(c) / lc
    if dser == {0: 1}:
        return Scalar(ps, out, ps._one_den)
    gzero = ps._bias - half
    return Scalar(ps, out, {gzero | ps._field(e): c for e, c in dser.items()})


def test_cyclotomic_polynomials():
    for m, phi in PHI.items():
        assert scalar_module._cyclotomic(m) == phi
    # s^n - 1 is the product of Phi_d over the divisors d of n
    for n in range(1, 41):
        prod = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = scalar_module._dense_mul(prod,
                                                scalar_module._cyclotomic(d))
        assert list(prod) == [-1] + [0] * (n - 1) + [1]


def cyclotomic_product(ps, factors):
    out = {ps.unit_mono: 1}
    for m, e in factors.items():
        phi = {(i,) + (0,) * (ps.nvars - 1): c
               for i, c in enumerate(PHI[m]) if c}
        for _ in range(e):
            out = ref_mul(out, phi)
    return out


@st.composite
def cyclotomic_fractions(draw):
    ps = draw(st.sampled_from(SPACES))
    return (ps,) + draw(cyclotomic_fractions_over(ps))


@st.composite
def cyclotomic_fractions_over(draw, ps):
    # den = c x g-monomial x s^k x prod Phi_m^e (m <= 12, e <= 2); num =
    # a random polynomial times Phi_m powers, most of them from den's
    factors = st.dictionaries(st.integers(1, 12), st.integers(1, 2),
                              max_size=3)
    den_f = draw(factors)
    num_f = {m: draw(st.integers(0, 2)) for m in den_f}
    for m, e in draw(factors).items():
        num_f[m] = num_f.get(m, 0) + e
    c = draw(st.sampled_from([1, -1, 2, Fraction(-3, 2)]))
    shift = ((draw(st.integers(-3, 3)),)
             + draw(st.tuples(*[st.integers(-2, 2)] * (ps.nvars - 1))))
    den = ref_mul(cyclotomic_product(ps, den_f), {shift: c})
    num = ref_mul(cyclotomic_product(ps, num_f),
                  draw(tuple_polys(ps, max_size=3)))
    return num, den


@settings(max_examples=120, deadline=None)
@given(cyclotomic_fractions())
def test_canon_matches_euclid_reference_on_cyclotomic_denominators(data):
    ps, num, den = data
    got = _canon(ps, packed(ps, num), packed(ps, den))
    want = ref_canon(ps, packed(ps, num), packed(ps, den))
    assert got.num == want.num and got.den == want.den
    assert got.is_laurent() == want.is_laurent()
    assert render_scalar(got) == render_scalar(want)


def test_a_factorization_that_does_not_re_expand_raises(monkeypatch):
    # 1 + 2s agrees with Phi_2 = 1 + s below the leading coefficient, which
    # trial division never reads (every Phi_m is monic); so s + 1 "divides"
    # by it, and only multiplying the factors back out shows the error
    real = scalar_module._cyclotomic.__wrapped__
    for name in ("_den_factors", "_cyclotomic_product"):
        fresh = functools.cache(getattr(scalar_module, name).__wrapped__)
        monkeypatch.setattr(scalar_module, name, fresh)
    monkeypatch.setattr(scalar_module, "_cyclotomic", functools.cache(
        lambda m: (1, 2) if m == 2 else real(m)))
    with pytest.raises(ScalarError, match="do not give"):
        scalar_invert(PS.s + PS.one)


# --- sums of products over a shared denominator ----------------------------

def naive_sum_products(cases):
    out = {}
    for key, x, y in cases:
        _acc(out, key, x * y)
    return out


def assert_same_sums(got, want):
    assert got.keys() == want.keys() and all(got.values())
    for key, w in want.items():
        g = got[key]
        assert (g.num, g.den) == (w.num, w.den)
        assert g.is_laurent() == w.is_laurent()
        assert render_scalar(g) == render_scalar(w)


@st.composite
def product_cases(draw, laurent_only):
    """(ps, cases) over one space: keys 0..2, operands Laurent or (unless
    laurent_only) cyclotomic fractions or the unit, and some cases again
    with the first factor negated, so that their keys may cancel."""
    ps = draw(st.sampled_from(SPACES))

    def operand():
        kind = draw(st.sampled_from(
            ["laurent"] if laurent_only else ["laurent", "fraction", "one"]))
        if kind == "one":
            return ps.one
        if kind == "laurent":
            return laurent(ps, draw(tuple_polys(ps, max_size=3,
                                                exps=st.integers(-4, 4))))
        num, den = draw(cyclotomic_fractions_over(ps))
        return _canon(ps, packed(ps, num), packed(ps, den))

    cases = [(draw(st.integers(0, 2)), operand(), operand())
             for _ in range(draw(st.integers(0, 6)))]
    if cases:
        again = draw(st.lists(st.sampled_from(cases), max_size=len(cases)))
        cases += [(key, -x, y) for key, x, y in again]
    return ps, draw(st.permutations(cases))


@settings(max_examples=80, deadline=None)
@given(product_cases(laurent_only=True))
def test_sum_products_matches_the_naive_loop_on_laurent_cases(data):
    _ps, cases = data
    assert_same_sums(sum_products(cases), naive_sum_products(cases))


@settings(max_examples=80, deadline=None)
@given(product_cases(laurent_only=False))
def test_sum_products_matches_the_naive_loop_on_fractions(data):
    _ps, cases = data
    assert_same_sums(sum_products(cases), naive_sum_products(cases))


def test_sum_products_adds_groups_of_different_denominators():
    # key 0 holds products over three unreduced denominators (1, 1 + s^2
    # and (1 + s^2)(1 - s + s^2)); key 1 cancels to zero across two of
    # them, and key 2 is a unit product alone
    ps = PS
    a = scalar_invert(ps.one + ps.r)
    b = scalar_invert(ps.one - ps.s + ps.r)
    g = g12()
    cases = [(0, g, ps.s), (0, a, ps.s), (1, a, b), (0, a, b), (0, ps.r, a),
             (1, -a, b), (2, ps.one, b), (0, ps.one, g)]
    got = sum_products(cases)
    assert set(got) == {0, 2} and got[2] is b
    assert_same_sums(got, naive_sum_products(cases))
    assert got[0] == g * ps.s + (ps.s + ps.r) * a + a * b + g


def test_sum_products_refuses_mixed_parameter_spaces():
    small, big = ParamSpace(3), ParamSpace(5)
    fraction = scalar_invert(small.one + small.r)
    for x, y in [(small.s, big.s), (big.s, small.s), (fraction, big.s),
                 (big.s, fraction), (small.zero, big.s), (big.s, small.zero),
                 (small.one, big.s)]:
        with pytest.raises(ValueError, match="different parameter spaces"):
            sum_products([(0, x, y)])
    with pytest.raises(ValueError, match="different parameter spaces"):
        sum_products([(0, small.s, small.s), (0, big.s, big.s)])


def test_sum_products_raises_the_overflow_of_the_product(monkeypatch):
    # three value bits hold exponents -4..3: s^3 * s overflows in the
    # numerator, and (1 + s^3)(1 + s) in the unreduced denominator
    monkeypatch.setattr(scalar_module, "_EXP_BITS", 3)
    ps = ParamSpace(5)
    over_num = (ps.s_pow(3), ps.s)
    over_frac = (ps.s_pow(3) * scalar_invert(ps.one + ps.s), ps.s)
    over_den = (scalar_invert(ps.one + ps.s_pow(3)),
                scalar_invert(ps.one + ps.s))
    for x, y in (over_num, over_frac, over_den):
        with pytest.raises(ExponentOverflow) as want:
            x * y
        with pytest.raises(ExponentOverflow) as got:
            sum_products([(0, ps.one, ps.s), (0, x, y)])
        assert str(got.value) == str(want.value)


# --- a Laurent polynomial times a canonical fraction -------------------------

@st.composite
def laurent_fraction_pairs(draw):
    """(ps, x, y): a Laurent polynomial and a canonical cyclotomic fraction,
    divided by 1 + s when it cancels to a Laurent polynomial, in either
    order.  The Laurent factor is a monomial with an int or Fraction
    coefficient, alone (its s-exponent then may sit at either end of its
    field), or times a random Laurent polynomial, or times the polynomial
    the fraction was drawn over, which cancels against it."""
    ps = draw(st.sampled_from(SPACES))
    num, den = draw(cyclotomic_fractions_over(ps))
    frac = _canon(ps, packed(ps, num), packed(ps, den))
    if frac.is_laurent():
        frac = _canon(ps, frac.num, packed(ps, cyclotomic_product(ps, {2: 1})))
    gexp = draw(st.tuples(*[st.integers(-2, 2)] * (ps.nvars - 1)))
    c = draw(st.sampled_from([1, -2, Fraction(2, 3), Fraction(-3, 2)]))
    factor = draw(st.one_of(st.just({}), tuple_polys(ps, max_size=2),
                            st.just(den)))
    if factor:
        sexp = draw(st.integers(-6, 6))
    else:
        sexp = draw(st.sampled_from([-ps._half, ps._half - 1, 0, 2]))
        factor = {(0,) * ps.nvars: 1}
    poly = laurent(ps, ref_mul({(sexp,) + gexp: c}, factor))
    return (ps, poly, frac) if draw(st.booleans()) else (ps, frac, poly)


def product_or_overflow(f):
    try:
        return f()
    except ExponentOverflow as exc:
        return "overflow: %s" % exc


PS5 = ParamSpace(5)
S_TOP = laurent(PS5, {(PS5._half - 1, 1): Fraction(1, 2)})
S_OVER_1_PLUS_S = PS5.s * scalar_invert(PS5.one + PS5.s)


def assert_matches_unreduced(ps, x, y):
    """x * y, x + y and the sums 2xy and x + y of sum_products equal _canon
    of their unreduced forms over the plain dict x.den * y.den, which
    holds no shared denominator; where the reference overflows, so must
    the operation, with the same message."""
    def den():
        return poly_mul(ps, x.den, y.den)

    def cross():
        return poly_add(poly_mul(ps, x.num, y.den),
                        poly_mul(ps, y.num, x.den))

    def summed(cases):
        return sum_products(cases).get(0, ps.zero)

    checks = [
        (lambda: x * y,
         lambda: _canon(ps, poly_mul(ps, x.num, y.num), den())),
        (lambda: x + y, lambda: _canon(ps, cross(), den())),
        (lambda: summed([(0, x, y), (0, y, x)]),
         lambda: _canon(ps, {m: 2 * c for m, c in
                             poly_mul(ps, x.num, y.num).items()}, den())),
        (lambda: summed([(0, x, ps.one), (0, y, ps.one)]),
         lambda: _canon(ps, cross(), den())),
    ]
    for operation, reference in checks:
        got = product_or_overflow(operation)
        want = product_or_overflow(reference)
        if isinstance(want, str):
            assert got == want
            continue
        assert (got.num, got.den) == (want.num, want.den)
        assert got.den is want.den
        assert got.is_laurent() == want.is_laurent()
        assert render_scalar(got) == render_scalar(want)
        assert scalar_to_json(got) == scalar_to_json(want)


@settings(max_examples=150, deadline=None)
@given(laurent_fraction_pairs())
@example((PS5, S_TOP, S_OVER_1_PLUS_S))    # both sides overflow in s
@example((PS5, S_OVER_1_PLUS_S, S_TOP))
def test_laurent_times_fraction_matches_canon(data):
    assert_matches_unreduced(*data)


@st.composite
def fraction_pairs(draw):
    """(ps, x, y): two cyclotomic fractions, each canonicalized from its
    own plain dicts.  y's denominator is drawn anew, or is the one x was
    drawn over, so that equal denominators built apart meet."""
    ps = draw(st.sampled_from(SPACES))
    num, den = draw(cyclotomic_fractions_over(ps))
    x = _canon(ps, packed(ps, num), packed(ps, den))
    if draw(st.booleans()):
        num, den = draw(cyclotomic_fractions_over(ps))
    else:
        num = draw(tuple_polys(ps))
    return ps, x, _canon(ps, packed(ps, num), packed(ps, den))


@settings(max_examples=150, deadline=None)
@given(fraction_pairs())
def test_fraction_sums_and_products_match_canon(data):
    assert_matches_unreduced(*data)


@settings(max_examples=100, deadline=None)
@given(fraction_pairs())
def test_common_denominator_clears_every_coefficient_with_its_inverse(data):
    """The common denominator makes every coefficient a Laurent
    polynomial, and the inverse given with it is the canonical one that
    scalar_invert solves for."""
    ps, x, y = data
    coeffs = [x, y, x * y, ps.s]
    common, inverse = common_denominator(ps, coeffs)
    assert common.is_laurent()
    assert all((c * common).is_laurent() for c in coeffs)
    want = scalar_invert(common)
    assert (inverse.num, inverse.den) == (want.num, want.den)
    assert inverse.den is want.den


def test_equal_denominators_are_one_object():
    """(1 + s)(1 + s^2), reached through every operation that builds a
    denominator, is one dict, and so is the unreduced product of 1 + s
    and 1 + s^2."""
    ps = ParamSpace(5)
    g = ps.g_pow((1, 2), 1)
    p2, p4 = ps.one + ps.s, ps.one + ps.r
    inv2, inv4 = scalar_invert(p2), scalar_invert(p4)
    reached = [
        scalar_invert(p2 * p4),
        inv2 * inv4,
        g * inv2 + ps.s * inv4,
        substitute(g * inv2 * inv4,
                   [ps.mono(s=1), ps.mono(g={(1, 2): -1})]),
        scalar_from_json(ps, scalar_to_json(inv2 * inv4)),
        sum_products([(0, inv2, inv4), (0, g, inv2)])[0],
    ]
    den = reached[0].den
    assert decoded(ps, den) == {(e, 0): 1 for e in range(4)}
    assert all(a.den is den for a in reached)
    assert scalar_module._den_product(ps, inv2.den.key, inv4.den.key) is den
    assert scalar_module._den(ps, (1,)) is ps._one_den
    # another space keeps its own
    small = ParamSpace(3)
    assert scalar_invert(small.one + small.s).den is not inv2.den


def test_denominator_products_are_formed_once_per_pair(monkeypatch, capsys):
    """In verify --suite rmatrix --n 8, poly_mul multiplies two non-unit
    denominators once per distinct pair: 12 times, where unshared
    denominators took 5,632 such products over the same 12 pairs."""
    pairs = Counter()
    real = scalar_module.poly_mul

    def counted(ps, p1, p2):
        if all(isinstance(p, scalar_module._Den) and p is not ps._one_den
               for p in (p1, p2)):
            pairs[p1.key, p2.key] += 1
        return real(ps, p1, p2)
    monkeypatch.setattr(scalar_module, "poly_mul", counted)
    # forgetting the products is safe: each is shared again through _den
    scalar_module._den_product.cache_clear()
    assert run(["verify", "--suite", "rmatrix", "--n", "8"]) == 0
    capsys.readouterr()
    assert pairs and set(pairs.values()) == {1}


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "rmatrix", "--n", "4"],
    ["verify", "--suite", "all", "--n", "3", "--degree", "1"],
    ["verify", "--suite", "rmatrix", "--n", "8"]])
def test_engine_traffic_never_reaches_euclid(monkeypatch, capsys, argv):
    # every denominator the suites build is a product of cyclotomic
    # polynomials, which _canon cancels without a gcd; at n = 8 the
    # projector contractions sum unreduced products of them first
    calls = {"_uni_gcd": 0, "_canon": 0}
    for name in calls:
        real = getattr(scalar_module, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(scalar_module, name, counted)
    assert run(argv) == 0
    capsys.readouterr()
    assert calls["_canon"] > 0 and calls["_uni_gcd"] == 0


# --- the r = 1 limit of a product, from Taylor coefficients at s = 1 -------

def _cyclotomic_den(ps, k, e2, e4):
    """(s - 1)^k Phi_2^e2 Phi_4^e4 as a Laurent polynomial Scalar."""
    out = ps.one
    for phi, e in ((ps.s - ps.one, k), (ps.s + ps.one, e2),
                   (ps.s_pow(2) + ps.one, e4)):
        for _ in range(e):
            out = out * phi
    return out


@st.composite
def limit_cases(draw):
    """(a, scale): a Laurent, or a fraction whose denominator may hold
    Phi_1 = s - 1 itself; scale a Laurent polynomial over (s - 1)^k with
    k in 0..3, mixed with Phi_2 and Phi_4.  Either numerator may carry
    powers of s - 1 that cancel a pole of the other factor."""
    ps = draw(st.sampled_from(SPACES))

    def fraction(max_k):
        num = laurent(ps, draw(tuple_polys(ps, max_size=3,
                                           exps=st.integers(-4, 4))
                               .filter(bool)))
        num = num * _cyclotomic_den(ps, draw(st.integers(0, 3)), 0, 0)
        den = _cyclotomic_den(ps, draw(st.integers(0, max_k)),
                              draw(st.integers(0, 1)), draw(st.integers(0, 1)))
        return num if den == ps.one else num * scalar_invert(den)

    a = fraction(draw(st.sampled_from([0, 2])))
    scale = fraction(3)
    if draw(st.booleans()):
        # a monomial over (s - 1)^k, the shape _as_side gives a side
        k = draw(st.integers(0, 3))
        mono = laurent(ps, {draw(st.tuples(*[st.integers(-4, 4)]
                                           * ps.nvars)): 2})
        scale = mono * scalar_invert(_cyclotomic_den(ps, k, 0, 0)
                                     * (ps.s + ps.one))
    return a, scale


def _limit_or_pole(f):
    try:
        return f()
    except PoleAtOne as exc:
        return "PoleAtOne: %s" % exc


PHI1 = PS5.s - PS5.one
G12 = PS5.g_pow((1, 2), 1)


@settings(max_examples=200, deadline=None)
@given(limit_cases())
@example((PS5.one, scalar_invert(PHI1)))                     # a pole
@example((PHI1, scalar_invert(PHI1 * (PS5.s + PS5.one))))    # 1/2
# a's own Phi_1 cancelled by the numerator of scale: g12/2, and 0
@example((G12 * scalar_invert(PHI1), PHI1 * scalar_invert(PS5.r + PS5.one)))
@example((G12 * scalar_invert(PHI1 * PHI1),
          PHI1 * PHI1 * PHI1 * scalar_invert(PS5.s + PS5.one)))
def test_limit_of_a_scaled_value_matches_the_limit_of_the_product(case):
    a, scale = case
    got = _limit_or_pole(lambda: limit_r_to_1(a, scale))
    want = _limit_or_pole(lambda: limit_r_to_1(a * scale))
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert (got.num, got.den) == (want.num, want.den)
    assert render_scalar(got) == render_scalar(want)
    assert scalar_to_json(got) == scalar_to_json(want)
    assert got.is_laurent()


def test_limit_reads_the_pole_order_of_both_denominators():
    inv = scalar_invert(PHI1 * PHI1 * (PS5.s + PS5.one))
    # (s - 1)^2 g12 / ((s - 1)^2 (s + 1)) -> g12 / 2
    assert limit_r_to_1(PHI1 * PHI1 * G12, inv) == G12 * PS5.from_rational(
        Fraction(1, 2))
    # one factor of s - 1 too few: the message names the canonical product
    with pytest.raises(PoleAtOne) as err:
        limit_r_to_1(PHI1 * G12, inv)
    assert str(err.value) == "pole at r=1: %r" % (PHI1 * G12 * inv,)


def test_a_parsed_denominator_of_high_s_degree_is_refused_at_once():
    # 1 + s^1000 would sieve Euler's phi up to 2 * 1000^2 and try every
    # cyclotomic factor of degree up to 1000
    ps = ParamSpace(5)
    doc = {"num": [{"coeff": "1", "exponents": [0, 0]}],
           "den": [{"coeff": "1", "exponents": [0, 0]},
                   {"coeff": "1", "exponents": [1000, 0]}]}
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        scalar_from_json(ps, doc)
    assert time.perf_counter() - start < 0.1
    assert err.value.pointer == "/den"
    assert "s-degree 1000" in err.value.message
    # the bound itself still parses
    doc["den"][1]["exponents"] = [scalar_module._MAX_DEN_DEGREE, 0]
    assert scalar_from_json(ps, doc).den


# --- the in-place multiply-accumulate kernel ----------------------------------

@st.composite
def mul_acc_cases(draw, exps=st.integers(-6, 6)):
    """(ps, start, x, hits): an accumulator {key: tuple poly} over keys
    0..2, an operand x and hits [(key, y)], some of them again with y
    negated, so that keys may cancel to an empty numerator."""
    ps = draw(st.sampled_from(SPACES))
    poly = tuple_polys(ps, max_size=3, exps=exps)
    start = draw(st.dictionaries(st.integers(0, 2), poly))
    hits = draw(st.lists(st.tuples(st.integers(0, 2), poly), max_size=5))
    if hits:
        again = draw(st.lists(st.sampled_from(hits), max_size=len(hits)))
        hits += [(k, {m: -c for m, c in y.items()}) for k, y in again]
    return ps, start, draw(poly), draw(st.permutations(hits))


def kernel_and_reference(ps, start, x, hits):
    """Keyed sums on packed numerators, one tagged_mul_acc call per hit
    into acc.setdefault(k, {}), a key dropped when its sum cancels; and
    _acc(d, k, x * y) on Scalars.  The kernel writes to no operand."""
    acc = {k: packed(ps, p) for k, p in start.items() if p}
    xn, ys = packed(ps, x), [(k, packed(ps, y)) for k, y in hits]
    given = [(p, dict(p)) for p in [xn] + [y for _, y in ys]]
    for k, y in ys:
        got = acc.setdefault(k, {})
        tagged_mul_acc(ps, got, xn, y)
        if not got:
            del acc[k]
    assert all(p == seen for p, seen in given)
    d = {k: laurent(ps, p) for k, p in start.items() if p}
    for k, y in hits:
        _acc(d, k, laurent(ps, x) * laurent(ps, y))
    return acc, d


@settings(max_examples=200, deadline=None)
@given(mul_acc_cases())
@example((PS, {0: {(1, 0): 2}}, {(1, 0): 1},
          [(0, {(0, 0): 1}), (0, {(0, 0): 1}), (0, {(0, 0): -4})]))
@example((PS, {}, {(1, 0): 1, (0, 1): -1},
          [(1, {(0, 0): 3, (2, 1): 1}), (1, {(0, 0): -3, (2, 1): -1})]))
def test_keyed_kernel_sums_match_acc_of_the_products(case):
    ps, start, x, hits = case
    acc, d = kernel_and_reference(ps, start, x, hits)
    assert acc == {k: v.num for k, v in d.items()}
    assert all(acc.values())


EDGE = ParamSpace(5)._half


@settings(max_examples=200, deadline=None)
@given(mul_acc_cases(exps=st.sampled_from(
    [-EDGE, -EDGE + 1, -1, 0, 1, EDGE - 2, EDGE - 1])))
def test_keyed_kernel_sums_overflow_as_the_product_does(case):
    # at the edge of the exponent field: the first monomial product that
    # leaves the field, x outside and y inside, raises with
    # Scalar.__mul__'s message on the same two monomials
    ps, start, x, hits = case
    for j, (_, y) in enumerate(hits):
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                try:
                    laurent(ps, {m1: c1}) * laurent(ps, {m2: c2})
                except ExponentOverflow as exc:
                    with pytest.raises(ExponentOverflow) as got:
                        kernel_and_reference(ps, start, x, hits[:j + 1])
                    assert str(got.value) == str(exc)
                    return
    acc, d = kernel_and_reference(ps, start, x, hits)
    assert acc == {k: v.num for k, v in d.items()}


# --- tagged numerators -----------------------------------------------------

@st.composite
def tagged_cases(draw, exps=st.integers(-6, 6)):
    """mul_acc_cases with a distinct tag id up to 10^6 for each key."""
    case = draw(mul_acc_cases(exps=exps))
    tags = draw(st.lists(st.integers(0, 10 ** 6), min_size=3, max_size=3,
                         unique=True))
    return case + (tags,)


def tagged_rounds(ps, hits, tags):
    """The hits [(key, y)] as tagged numerators, each folding the next
    hits up to a repeated key: one tagged operand per round."""
    rounds, part = [], {}
    for k, y in hits:
        if tags[k] in part:
            rounds.append(tag_fold(ps, part))
            part = {}
        part[tags[k]] = packed(ps, y)
    return rounds + [tag_fold(ps, part)] if part else rounds


@settings(max_examples=200, deadline=None)
@given(tagged_cases())
def test_fold_multiply_and_split_match_the_products_for_every_tag(case):
    ps, start, x, hits, tags = case
    acc = tag_fold(ps, {tags[k]: packed(ps, p) for k, p in start.items()})
    xn, rounds = packed(ps, x), tagged_rounds(ps, hits, tags)
    given = [(p, dict(p)) for p in [xn, *rounds]]
    for y in rounds:
        tagged_mul_acc(ps, acc, xn, y)
    assert all(p == seen for p, seen in given)      # no operand written to
    assert all(acc.values())                        # no cancelled entry
    _, want = kernel_and_reference(ps, start, x, hits)
    assert tag_split(ps, acc) == {tags[k]: v.num for k, v in want.items()}


def test_a_tagged_sum_that_cancels_leaves_no_entry():
    ps = ParamSpace(5)
    y = tag_fold(ps, {0: laurent_numerator(ps, ps.lam),
                      10 ** 6: laurent_numerator(ps, ps.s)})
    minus = tag_fold(ps, {0: laurent_numerator(ps, -ps.lam),
                          10 ** 6: laurent_numerator(ps, -ps.s)})
    x = laurent_numerator(ps, ps.r + ps.one)
    acc = {}
    tagged_mul_acc(ps, acc, x, y)
    assert tag_split(ps, acc) == {
        0: laurent_numerator(ps, (ps.r + ps.one) * ps.lam),
        10 ** 6: laurent_numerator(ps, (ps.r + ps.one) * ps.s)}
    tagged_mul_acc(ps, acc, x, minus)
    assert acc == {} and tag_split(ps, acc) == {}
    assert laurent_scalar(ps, x) == ps.r + ps.one
    # folding a tagged part adds the tags
    assert tag_fold(ps, {5: tag_fold(ps, {2: x})}) == tag_fold(ps, {7: x})
    with pytest.raises(ValueError, match="tag -1 is negative"):
        tag_fold(ps, {-1: x})


@settings(max_examples=200, deadline=None)
@given(tagged_cases(exps=st.sampled_from(
    [-EDGE, -EDGE + 1, -1, 0, 1, EDGE - 2, EDGE - 1])))
def test_tagged_mul_acc_overflows_as_the_product_does(case):
    # the first product of untagged monomials that leaves the field, x
    # outside and y inside, raises with Scalar.__mul__'s message on them
    ps, start, x, hits, tags = case
    xn, rounds = packed(ps, x), tagged_rounds(ps, hits, tags)
    acc = tag_fold(ps, {tags[k]: packed(ps, p) for k, p in start.items()})
    for y in rounds:
        expected = None
        for m1, c1 in xn.items():
            for m2, c2 in y.items():
                (m2u, c2u), = next(iter(tag_split(ps, {m2: c2}).values())
                                   ).items()
                try:
                    laurent_scalar(ps, {m1: c1}) * laurent_scalar(
                        ps, {m2u: c2u})
                except ExponentOverflow as exc:
                    expected = str(exc)
                    break
            if expected is not None:
                break
        if expected is None:
            tagged_mul_acc(ps, acc, xn, y)
            continue
        with pytest.raises(ExponentOverflow) as got:
            tagged_mul_acc(ps, acc, xn, y)
        assert str(got.value) == expected
        return
    _, want = kernel_and_reference(ps, start, x, hits)
    assert tag_split(ps, acc) == {tags[k]: v.num for k, v in want.items()}


def test_laurent_numerator_refuses_a_denominator_and_another_space():
    ps = ParamSpace(5)
    bad = scalar_invert(ps.one + ps.r)
    with pytest.raises(DenominatorClass, match=re.escape(repr(bad))):
        laurent_numerator(ps, bad)
    with pytest.raises(ValueError, match="different parameter spaces"):
        laurent_numerator(ps, ParamSpace(3).s)
    assert laurent_scalar(ps, dict(laurent_numerator(ps, ps.lam))) == ps.lam
    assert laurent_scalar(ps, {}) is ps.zero
