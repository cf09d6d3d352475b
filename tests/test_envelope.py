"""Regular functionals on the deformed function algebras: the L+ / L-
matrices read off the R-matrix, the Hopf structure they carry, the
subalgebra annihilating the cone ideal, and the induced pairing with
the inhomogeneous coordinate algebra.

Functional words evaluate through matrix products, so every identity
is checked degree by degree on spanning sets of T words.
"""

import functools
import re
import sys
import tracemalloc
from collections import Counter
from itertools import product as iproduct
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from qortho import calculus, envelope
from qortho.envelope import (EPS_WORD, AnnihilationResult,
                             _cone_witness, _Diagonal, _exchange_detail,
                             _exchange_relations, _Pattern, _Side,
                             _first_difference, _mapped,
                             _metric_orthogonality, _walk, _witnesses,
                             antipode_L, eps_functional, eta_monomials,
                             eval_functional,
                             functional_equal, functional_from_json,
                             functional_to_json, gen_tag, independence_rank,
                             iu_annihilates, iu_generators, l_functional,
                             pairing, show_t_word, tag_gen,
                             verify_envelope_suite, verify_pairing_axioms,
                             verify_parameter_collapse, word_functional)
from qortho.itensor import IndexGeometry
from qortho.presentations import (AlgebraElement, build_presentation,
                                  section, word_element)
from qortho.rmatrix import RMatrixBundle, build_bundle
from qortho.scalars import (DenominatorClass, PoleAtOne, Scalar, _acc,
                            laurent_numerator, limit_r_to_1,
                            merge_deformations, render_scalar, scalar_invert)

GEOM3 = IndexGeometry(3)
BUNDLE3 = build_bundle(GEOM3)
SO3 = build_presentation("so", 3)

N = 3
GEOM5 = IndexGeometry(N + 2, embedded=True)
BUNDLE5 = build_bundle(GEOM5)
ISO3 = build_presentation("iso", N)
BIG5 = build_presentation("so", N + 2, embedded=True)


def t_word(pres, *pairs):
    names = ["T[%d,%d]" % ab for ab in pairs]
    return word_element(pres.alphabet, pres.params, pres.alphabet.word(*names))


def iso_word(*names, coeff=None):
    A, ps = ISO3.alphabet, ISO3.params
    return word_element(A, ps, A.word(*names), coeff)


def test_generator_tags():
    assert gen_tag((1, 2, 3)) == "L+[2,3]"
    assert gen_tag((-1, 1, 2)) == "L-[1,2]"
    assert tag_gen("L+[2,3]") == (1, 2, 3)
    assert tag_gen("eps") is None
    for bad in ["L+[1,1)", "L+[1,1,1]", "L+[a,1]", "L+[1,1]x", "L*[1,1]",
                "L-[,1]", "L-[1, 1]"]:
        with pytest.raises(ValueError, match="unknown functional generator"):
            tag_gen(bad)
    with pytest.raises(ValueError, match="unknown functional generator"):
        functional_from_json(BUNDLE5, [{"word": ["L+[1,1)"],
                                        "coeff": functional_to_json(
                                            eps_functional(BUNDLE5))[0]
                                        ["coeff"]}])


def test_show_t_word():
    assert show_t_word(GEOM3, ()) == "I"
    assert show_t_word(GEOM3, ((1, 2), (3, 1))) == "T[1,2] T[3,1]"
    assert show_t_word(GEOM5, ((1, 5),)) == "T[∘,•]"


def test_l_plus_evaluates_through_r():
    R = BUNDLE3.R
    for A in GEOM3.indices():
        for B in GEOM3.indices():
            f = l_functional(BUNDLE3, 1, A, B)
            for C in GEOM3.indices():
                for D in GEOM3.indices():
                    got = eval_functional(f, t_word(SO3, (C, D)))
                    assert got == R.get((C, A, D, B))


def test_l_minus_evaluates_through_r_inverse():
    Rinv = BUNDLE3.Rinv
    for A in GEOM3.indices():
        for B in GEOM3.indices():
            f = l_functional(BUNDLE3, -1, A, B)
            for C in GEOM3.indices():
                for D in GEOM3.indices():
                    got = eval_functional(f, t_word(SO3, (C, D)))
                    assert got == Rinv.get((A, C, B, D))


def test_counit_functional_values():
    ps = GEOM3.params
    eps = eps_functional(BUNDLE3)
    unit = word_element(SO3.alphabet, SO3.params, ())
    assert eval_functional(eps, unit) == ps.one
    assert eval_functional(eps, t_word(SO3, (1, 2))) == ps.zero
    assert eval_functional(eps, t_word(SO3, (2, 2))) == ps.one


def test_functional_equal_reports_witness():
    f = l_functional(BUNDLE3, 1, 2, 3)
    g = f + eps_functional(BUNDLE3)
    res = functional_equal(f, g, 1)
    assert not res.equal and res.witness[0] == ()
    assert functional_equal(f, f + f - f, 2).equal


class _Spell(NamedTuple):
    """A test source whose state is the word read so far."""
    letters: tuple

    def viable(self, ends, r):
        return None

    def step(self, row, keep=None):
        return {x: {a + (x,): v for a, v in row.items()}
                for x in self.letters}


def on_words(*words):
    """A side that is 1 on the given words and 0 on every other word."""
    src = _Spell(tuple(iproduct(range(1, 6), repeat=2)))
    return _Side(((src, {(): GEOM3.params.one}, {w: None for w in words}),))


def test_first_difference_order():
    one = GEOM3.params.one
    # key (1,) first differs at length 2, on two words whose order by
    # coordinate tuple is the reverse of their (row, column) order
    pairs = {(1,): (on_words(((1, 5), (1, 5)), ((1, 3), (2, 1))),
                    on_words()),
             (2,): (on_words(((2, 1),)), on_words())}
    assert _first_difference(pairs, 2) == ((2,), ((2, 1),), one, None)
    del pairs[(2,)]
    assert _first_difference(pairs, 1) is None
    assert _first_difference(pairs, 2) == ((1,), ((1, 3), (2, 1)), one, None)


class _OneEntryBundle:
    """An R matrix bundle stand-in whose plus matrix is the one entry
    L+^1_1(T^1_1) = entry."""

    def __init__(self, geometry, entry):
        self.geometry = geometry
        self.Rplus = {(1, 1, 1, 1): entry}


def test_walk_refuses_a_value_with_a_denominator():
    """A start row, a column entry, a transfer entry or a diagonal factor
    that is not a Laurent polynomial stops the walk with DenominatorClass
    naming it, under python -O too."""
    ps = GEOM3.params
    bad = scalar_invert(ps.one + ps.r)          # 1/(1 + s^2)
    src = _Pattern(BUNDLE3, (1,))
    sides = [_Side(((src, {(1,): bad}, {(1,): None}),)),
             _Side(((src, {(1,): ps.one}, {(1,): bad}),)),
             _Side(((_Pattern(_OneEntryBundle(GEOM3, bad), (1,)),
                     {(1,): ps.one}, {(1,): None}),))]
    for side in sides:
        with pytest.raises(DenominatorClass, match=re.escape(repr(bad))):
            list(_walk({(): side}, 1))
    with pytest.raises(DenominatorClass, match=re.escape(repr(bad))):
        _Diagonal({1: ps.one, 2: bad})


def _caller(depth: int) -> str:
    """The name of the function depth frames up, comprehension frames
    skipped."""
    frame = sys._getframe(depth + 1)
    while frame.f_code.co_name.startswith("<"):         # comprehensions
        frame = frame.f_back
    return frame.f_code.co_name


def _count_products(monkeypatch):
    """Counters of the Scalar products by calling function and of the
    calls of envelope's one kernel, tagged_mul_acc, by calling function."""
    callers = Counter()
    mul = Scalar.__mul__

    def counted(a, b):
        callers[_caller(1)] += 1
        return mul(a, b)

    kernel_calls = Counter()
    real = envelope.tagged_mul_acc

    def kernel(*args):
        kernel_calls[_caller(1)] += 1
        return real(*args)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(envelope, "tagged_mul_acc", kernel)
    return callers, kernel_calls


def test_the_walk_multiplies_through_the_kernel_alone(monkeypatch):
    """Every product of an exchange walk goes through
    scalars.tagged_mul_acc on Laurent numerators: the walk's frames make
    no Scalar product."""
    callers, kernel_calls = _count_products(monkeypatch)
    assert _first_difference(
        _exchange_relations(BUNDLE5, BUNDLE5.R, 1, 1), 2) is None
    assert kernel_calls
    assert not callers.keys() & {"_walk", "step", "_through", "_read"}


def test_the_last_level_makes_one_kernel_call_per_live_stream_state(
        monkeypatch):
    """At D = 2 the last level's parents are the one-letter words, whose
    live rows the root steps.  The last level multiplies each live
    (stream, state) entry into its node's sum with one tagged_mul_acc
    call, whatever the number of letters it reads through; the steps
    make their kernel calls from their own frames."""
    live = []
    for source in (_Pattern, _Diagonal):
        def step(self, row, keep=None, real=source.step):
            rows = real(self, row, keep)
            if _caller(1) == "_walk":
                live.extend(len(r) for r in rows.values())
            return rows

        monkeypatch.setattr(source, "step", step)
    _, kernel_calls = _count_products(monkeypatch)
    assert _first_difference(
        _exchange_relations(BUNDLE5, BUNDLE5.R, 1, 1), 2) is None
    assert sum(live) > 0
    assert kernel_calls["_walk"] == sum(live)
    assert kernel_calls["step"] > 0


def test_the_convolution_multiplies_through_the_kernel_alone(monkeypatch):
    """The q-Lie rows' products of factor values go through
    scalars.tagged_mul_acc too: _convolve makes no Scalar product."""
    callers, kernel_calls = _count_products(monkeypatch)
    rows = calculus.lie_rows("r1", 3, 2)
    assert rows and all(row["status"] for row in rows)
    assert kernel_calls
    assert not callers.keys() & {"_convolve", "_walk", "_read"}


def _successors(src, states):
    """{a: the states b with Theta^C_D[a][b] nonzero for some letter}, by
    stepping the unit row of each state a of src with no filter."""
    one = laurent_numerator(src.bundle.geometry.params,
                            src.bundle.geometry.params.one)
    return {a: {b for row in src.step({a: one}).values() for b in row}
            for a in states}


def _reaching(succ, ends, r):
    """The states of succ from which some state of ends is reached within
    r letters, by a brute-force backward search."""
    ok = set(ends)
    for _ in range(r):
        ok |= {a for a, bs in succ.items() if bs & ok}
    return ok


@pytest.mark.parametrize("signs", [
    (1,), (-1,), (1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_viable_keeps_exactly_the_states_that_reach_ends(signs):
    """For a pattern of one or two letters, one block of step, the viable
    filter is the set of states from which ends is reached within r
    letters, for every single end state and r = 0..3."""
    src = _Pattern(BUNDLE5, signs)
    states = list(iproduct(GEOM5.indices(), repeat=len(signs)))
    succ = _successors(src, states)
    for end in states:
        for r in range(4):
            assert src.viable({end: None}, r) == (
                _reaching(succ, {end}, r),)


@pytest.mark.parametrize("signs", [(1, -1, 1), (1, 1, -1, -1, 1)])
def test_viable_keeps_every_state_that_reaches_ends(signs):
    """For a longer pattern the viable filter keeps, block by block, every
    state from which ends is reached within r letters."""
    src = _Pattern(BUNDLE5, signs)
    states = list(iproduct(GEOM5.indices(), repeat=len(signs)))
    succ = _successors(src, states)
    for ends in [{states[0]}, {states[len(states) // 2]}, set(states[-3:])]:
        for r in range(3):
            keep = src.viable(dict.fromkeys(ends), r)
            for a in _reaching(succ, ends, r):
                assert all(a[2 * i:2 * i + 2] in ok
                           for i, ok in enumerate(keep))


def test_every_looked_ahead_state_of_a_short_pattern_reaches_a_read_state(
        monkeypatch):
    """At D = 2 every state of a pattern of one or two letters that the
    last level looks ahead from steps to some read state: the root's step
    into the last level's parents drops every state that reaches none,
    so no such state is multiplied by an empty lookahead."""
    seen = []
    through = envelope._through

    def spy(src, a, at, *rest):
        if type(src) is _Pattern and len(src.signs) <= 2:
            seen.append((src, a, at))
        return through(src, a, at, *rest)

    monkeypatch.setattr(envelope, "_through", spy)
    assert _first_difference(
        _exchange_relations(BUNDLE5, BUNDLE5.R, 1, 1), 2) is None
    assert seen
    for src, a, at in seen:
        assert _successors(src, [a])[a] & at.keys()


def test_a_walk_computes_each_viable_filter_once(monkeypatch):
    """In one walk, each stream's viable filter is computed at most once
    per number of letters left, the lookahead's filter included."""
    calls = Counter()
    held = []                   # keeps every ends alive, so ids stay unique
    viable = _Pattern.viable

    def counted(self, ends, r):
        held.append(ends)
        calls[id(ends), r] += 1
        return viable(self, ends, r)

    monkeypatch.setattr(_Pattern, "viable", counted)
    assert _first_difference(
        _exchange_relations(BUNDLE5, BUNDLE5.R, 1, 1), 2) is None
    assert {r for _, r in calls} == {0, 1}
    assert max(calls.values()) == 1


def test_a_bracket_walk_steps_only_the_prefixes_of_its_word(monkeypatch):
    """A bracket on a 10-letter word steps its one stream once at each
    proper prefix but the last, whose letters are read through the
    lookahead: 9 steps, where a full walk of that depth would step at
    every word of length up to 8."""
    steps, ahead = [], []
    step, through = _Pattern.step, envelope._through

    def counted(*args):
        if not ahead:
            steps.append(1)
        return step(*args)

    def looking_ahead(*args):
        ahead.append(1)
        try:
            return through(*args)
        finally:
            ahead.pop()

    monkeypatch.setattr(_Pattern, "step", counted)
    monkeypatch.setattr(envelope, "_through", looking_ahead)
    names = "u T[1,1] v T[2,2] u u T[3,3] v T[1,1] u".split()
    f = word_functional(BUNDLE5, ((1, 1, 1), (-1, 2, 2)))
    got = envelope._brackets({(): f}, {(): section(iso_word(*names), ISO3)})
    assert got == {((), ()): ISO3.params.s_pow(4) * scalar_invert(
        ISO3.params.monomial(1, ISO3.params.mono(0, {(1, 2): 1})))}
    assert len(steps) == len(names) - 1


def test_mapped_refuses_a_side_mapped_already():
    """A word side and a product side can each be mapped once; mapping
    the image again is refused by name."""
    f = l_functional(BUNDLE5, 1, 2, 2)
    for side in (f, envelope._factored(f) * envelope._factored(f)):
        once = _mapped(side, limit_r_to_1)
        assert once.fn is limit_r_to_1
        with pytest.raises(ValueError, match="mapped by limit_r_to_1"):
            _mapped(once, merge_deformations)


def test_a_passing_relation_family_makes_no_value(monkeypatch):
    """The exchange relations are walked as one difference side per key,
    and every key passes: no value is made on any word."""
    made = []
    wrap = envelope.laurent_scalar
    monkeypatch.setattr(envelope, "laurent_scalar", lambda *args: (
        made.append(1), wrap(*args))[1])
    assert _first_difference(
        _exchange_relations(BUNDLE5, BUNDLE5.R, 1, 1), 2) is None
    assert not made


def test_a_walk_frees_its_difference_sides_once_compiled():
    """Neither _witnesses nor the walk keeps the difference elements
    after _compile has read them, so the traced peak of the plus-plus
    exchange check at N = 4, D = 2 stays under 7.9 MB (8.2 MB while they
    were held), once a D = 1 call has built the transfer matrices."""
    bundle = build_bundle(IndexGeometry(6, embedded=True))
    assert _first_difference(
        _exchange_relations(bundle, bundle.R, 1, 1), 1) is None
    tracemalloc.start()
    try:
        assert _first_difference(
            _exchange_relations(bundle, bundle.R, 1, 1), 2) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.9 * 2 ** 20


def test_witnesses_refuse_a_mapped_side_against_a_nonzero_side():
    """Both sides are (1/lambda) eps on the words of length <= 2 (the
    ordered diagonal product of L+ is the counit), so each has the pole
    1/lambda on the empty word and the poles cancel in lhs - rhs, where
    no side's map would see them.  The unmapped pair holds; a mapped side
    set against a nonzero side is refused by the name of its map."""
    lam_inv = scalar_invert(GEOM5.params.lam)
    diagonal = tuple((1, A, A) for A in GEOM5.indices())
    lhs = word_functional(BUNDLE5, diagonal, lam_inv)
    rhs = eps_functional(BUNDLE5).scale(lam_inv)
    assert _witnesses({(): (lhs, rhs)}, 2) == {}
    for pair in ((_mapped(lhs, limit_r_to_1), _mapped(rhs, limit_r_to_1)),
                 (_mapped(lhs, limit_r_to_1), eps_functional(BUNDLE5))):
        with pytest.raises(ValueError, match="mapped by limit_r_to_1"):
            _witnesses({(): pair}, 2)


def _walk_spy(monkeypatch):
    """A list that receives, for every _walk and _convolve call made
    through the envelope module, whether its family holds a key (key, 0)
    or (key, 1), the two sides of a failing relation read again by
    _witnesses."""
    walks = []
    for name in ("_walk", "_convolve"):
        def spy(family, *args, real=getattr(envelope, name)):
            walks.append(any(type(k) is tuple and len(k) == 2
                             and type(k[0]) is tuple and k[1] in (0, 1)
                             for k in family))
            return real(family, *args)
        monkeypatch.setattr(envelope, name, spy)
    return walks


def test_every_relation_is_walked_as_one_difference_side(monkeypatch):
    """Every relation of the two envelope reports, the collapse included,
    and all 163 of verify_qlie("r1", 3) (154 q-Lie rows and 9 cone cross
    terms) is walked as one difference side: _difference gives a side for
    each, and the r = 1 suite, where every relation holds, makes no walk
    that reads two sides again.  (The envelope reports also check
    relations that must fail, whose two sides are read again as the keys
    (key, 0) and (key, 1) of one walk.)"""
    one_side = []
    orig = envelope._difference

    def spy(lhs, rhs):
        d = orig(lhs, rhs)
        one_side.append(d is not None)
        return d

    monkeypatch.setattr(envelope, "_difference", spy)
    walks = _walk_spy(monkeypatch)
    assert verify_envelope_suite(3, 2).ok
    assert verify_parameter_collapse(3, 2).ok
    assert one_side and all(one_side)
    assert any(walks)           # the collapse's mismatch is read again
    one_side.clear()
    walks.clear()
    assert calculus.verify_qlie("r1", 3).ok
    assert one_side.count(True) == len(one_side) == 163
    assert walks and not any(walks)


def test_a_limited_side_against_zero_keeps_its_pole(monkeypatch):
    """A side mapped by the r = 1 limit and set against zero is walked
    as that side alone, and its own pole still raises PoleAtOne."""
    walks = _walk_spy(monkeypatch)
    lam_inv = scalar_invert(GEOM5.params.lam)
    lhs = _mapped(word_functional(BUNDLE5, EPS_WORD, lam_inv), limit_r_to_1)
    zero = envelope.FunctionalElement(BUNDLE5, {})
    for rhs in (zero, _mapped(zero, limit_r_to_1)):
        with pytest.raises(PoleAtOne):
            _witnesses({(): (lhs, rhs)}, 1)
    assert walks == [False, False]


def test_the_uniparametric_bundle_takes_the_merged_values():
    """Over the uniparametric bundle each L+-^A_B, the collapse word
    L+^1_1 L-^1_1 and eps take, on every T-word of length <= 2, the
    value at g_ab = r of the generic functional: the generic value sent
    through merge_deformations one value at a time, the route the
    collapse check took before it had a bundle."""
    uni = BUNDLE5.uniparametric
    assert uni is BUNDLE5.uniparametric and uni.geometry is BUNDLE5.geometry
    assert uni._inverse_certificates[
        "inverse by inverting all parameters"] == (True, "")
    words = {g: (g,) for g in iproduct((1, -1), GEOM5.indices(),
                                       GEOM5.indices())}
    words["collapse"] = ((1, 1, 1), (-1, 1, 1))
    words["eps"] = EPS_WORD

    def values(bundle, fn):
        family = {k: word_functional(bundle, w) for k, w in words.items()}
        out = {}
        for coords, vals in _walk(family, 2):
            vals = {k: v for k, v in map(fn, vals.items()) if v}
            if vals:
                out[coords] = vals
        return out

    generic = values(BUNDLE5, lambda kv: kv)
    merged = values(BUNDLE5, lambda kv: (kv[0], merge_deformations(kv[1])))
    assert values(uni, lambda kv: kv) == merged != generic
    assert len(merged) == 323      # words with a nonzero value
    assert merged[((1, 1),)]["collapse"] == GEOM5.params.one


def test_pairing_values():
    ps = ISO3.params
    assert pairing(l_functional(BUNDLE5, -1, 1, 1), iso_word("u")) == ps.s_pow(-2)
    assert pairing(l_functional(BUNDLE5, -1, 1, 1), iso_word("v")) == ps.s_pow(2)
    assert pairing(eps_functional(BUNDLE5), iso_word()) == ps.one
    assert pairing(eps_functional(BUNDLE5), iso_word("x1")) == ps.zero


def test_functionals_reject_a_foreign_alphabet():
    """An element over any alphabet but the bundle's own matrix entries
    is refused by name, not by a missing symbol."""
    f = l_functional(BUNDLE5, 1, 2, 2)
    so5 = build_presentation("so", 5)
    for elem in (t_word(so5, (1, 1)), iso_word("T[1,1]")):
        with pytest.raises(ValueError, match=r"alphabet T\[∘,∘\] \.\.\. "
                                             r"T\[•,•\]; got"):
            eval_functional(f, elem)


def test_iu_generator_count():
    gens = iu_generators(BUNDLE5)
    assert len(gens) == 37


def test_iu_annihilation_positive_and_negative():
    good = word_functional(BUNDLE5, ((1, 2, 3),))
    res = iu_annihilates(good, N, D=2)
    assert isinstance(res, AnnihilationResult) and res.ok

    bad = word_functional(BUNDLE5, ((1, 1, 2),))
    res2 = iu_annihilates(bad, N, D=2)
    assert not res2.ok
    coords, val = res2.witness
    assert val and coords
    # the witness word really does separate the functional from zero
    big = build_presentation("so", 5, embedded=True)
    names = ["T[%s,%s]" % (GEOM5.label(a), GEOM5.label(b)) for a, b in coords]
    w = word_element(big.alphabet, big.params, big.alphabet.word(*names))
    assert eval_functional(bad, w) == val


def test_pairing_check_rejects_outside_functionals():
    # pairing does not check; a caller refuses f by iu_annihilates first
    bad = word_functional(BUNDLE5, ((1, 1, 2),))
    assert not iu_annihilates(bad, 3, 2).ok


def test_eta_monomials_and_rank():
    ms = eta_monomials(3, 2)
    assert len(ms) == 20
    assert EPS_WORD in ms
    assert independence_rank(ms, 3, 3) == 20
    assert independence_rank([ms[1], ms[1]], 3, 2) == 1
    assert independence_rank([EPS_WORD], 3, 2) == 1


def test_exchange_residual_reports_a_wrong_exchange_matrix():
    inner = set(GEOM5.inner())

    def block(A, B):
        return A == B or (A in inner and B in inner)

    for s2, s1, masks in [(1, 1, {"mask2": block, "mask1": block}),
                          (1, -1, {"mask2": block})]:
        w = _first_difference(
            _exchange_relations(BUNDLE5, BUNDLE5.Rinv, s2, s1, **masks), 1)
        assert w is not None
        (A, B, C, D), x, lv, rv = w
        assert lv != rv and len(x) == 1
        text = _exchange_detail(GEOM5, w)
        assert text.startswith("indices (")
        assert text.endswith("%s vs %s" % (
            "0" if lv is None else render_scalar(lv),
            "0" if rv is None else render_scalar(rv)))


INNER5 = set(GEOM5.inner())


def _block(A, B):
    return A == B or (A in INNER5 and B in INNER5)


# the first witness of a wrong exchange matrix (R^-1 in place of R) on
# words of length <= 2: the smallest length, then the smallest index key
# (A, B, C, D), then the smallest word
WRONG_EXCHANGE_WITNESSES = [
    ("plus-plus", 1, 1, {},
     "indices (∘,∘;∘,1) on T[1,∘]: "
     "s^2 - s^-2 vs -s^6 + 2*s^2 + s^-2*g12^2 - s^-2 - s^-6*g12^2"),
    ("minus-minus", -1, -1, {},
     "indices (∘,1;∘,∘) on T[∘,1]: "
     "-s^-2*g12^2 + s^-6*g12^2 vs -s^-2 + s^-6"),
    ("mixed", 1, -1, {},
     "indices (∘,∘;∘,1) on T[1,∘]: s^-2 - s^-6 vs s^-2*g12^2 - s^-6*g12^2"),
    ("block", 1, 1, {"mask2": _block, "mask1": _block},
     "indices (∘,1;∘,2) on T[2,1]: s^-2*g12^2 - s^-6*g12^2 vs s^2 - s^-2"),
    ("mixed-block", 1, -1, {"mask2": _block},
     "indices (∘,1;∘,2) on T[2,1]: s^-2*g12^2 - s^-6*g12^2 vs s^2 - s^-2"),
]


@pytest.mark.parametrize("s2,s1,masks,text",
                         [case[1:] for case in WRONG_EXCHANGE_WITNESSES],
                         ids=[case[0] for case in WRONG_EXCHANGE_WITNESSES])
def test_exchange_residual_pins_the_wrong_matrix_witness(s2, s1, masks,
                                                          text):
    w = _first_difference(
        _exchange_relations(BUNDLE5, BUNDLE5.Rinv, s2, s1, **masks), 2)
    assert _exchange_detail(GEOM5, w) == text


ORTHOGONALITY_WITH_TWO_EPS = "indices (1,5) on I: s^3 vs 2*s^3"
COUNIT_WITH_TWO_EPS = "I: 1 vs 2"

# the failing checks of verify_envelope_suite(3, 2), with their details,
# under a deliberately wrong counit or exchange matrix
WRONG_SUITE_DETAILS = {
    "eps doubled": {
        "upper metric orthogonality of the plus matrix":
            ORTHOGONALITY_WITH_TWO_EPS,
        "lower metric orthogonality of the plus matrix":
            ORTHOGONALITY_WITH_TWO_EPS,
        "upper metric orthogonality of the minus matrix":
            ORTHOGONALITY_WITH_TWO_EPS,
        "lower metric orthogonality of the minus matrix":
            ORTHOGONALITY_WITH_TWO_EPS,
        "ordered diagonal product of the plus matrix equals the counit":
            COUNIT_WITH_TWO_EPS,
        "ordered diagonal product of the minus matrix equals the counit":
            COUNIT_WITH_TWO_EPS,
        "middle diagonal plus functional equals the counit":
            COUNIT_WITH_TWO_EPS,
        "middle diagonal minus functional equals the counit":
            COUNIT_WITH_TWO_EPS,
        "upper metric orthogonality of the block matrix":
            ORTHOGONALITY_WITH_TWO_EPS,
        "lower metric orthogonality of the block matrix":
            ORTHOGONALITY_WITH_TWO_EPS,
    },
    "R inverse in the unmasked exchange families": {
        "exchange relations for two plus rows": WRONG_EXCHANGE_WITNESSES[0][4],
        "exchange relations for two minus rows":
            WRONG_EXCHANGE_WITNESSES[1][4],
        "mixed exchange relations between plus and minus rows":
            WRONG_EXCHANGE_WITNESSES[2][4],
    },
}


@pytest.mark.parametrize("mutation", sorted(WRONG_SUITE_DETAILS))
def test_the_suite_reports_each_failing_family_by_its_witness(mutation,
                                                              monkeypatch):
    """The relation suite reports every failing family, keyed or not, by
    the detail of its first witness: a doubled counit breaks the metric
    orthogonality and counit families, and R^-1 in place of R breaks the
    three unmasked exchange families; every other check still passes."""
    if mutation == "eps doubled":
        eps = envelope.eps_functional
        monkeypatch.setattr(envelope, "eps_functional", lambda bundle: eps(
            bundle).scale(bundle.geometry.params.from_rational(2)))
    else:
        exchange = envelope._exchange_relations

        def wrong(bundle, Rt, s2, s1, *masks, **named):
            if Rt is bundle.R and not masks and not named:
                Rt = bundle.Rinv
            return exchange(bundle, Rt, s2, s1, *masks, **named)

        monkeypatch.setattr(envelope, "_exchange_relations", wrong)
    rep = verify_envelope_suite(3, 2)
    assert {c.name: c.detail for c in rep.failures()} \
        == WRONG_SUITE_DETAILS[mutation]


def test_functional_json_round_trip():
    fw = word_functional(BUNDLE5, ((1, 2, 2), (-1, 3, 3)))
    payload = functional_to_json(fw)
    assert payload[0]["word"] == ["L+[2,2]", "L-[3,3]"]
    assert functional_from_json(BUNDLE5, payload) == fw


def test_antipode_counit_fixed_point():
    eps = eps_functional(BUNDLE3)
    assert functional_equal(antipode_L(eps), eps, 2).equal


def test_envelope_suite_quick():
    rep = verify_envelope_suite(3, 1)
    assert rep.ok and len(rep.checks) == 27
    names = [c.name for c in rep.checks]
    assert "triangularity of the functional matrices" in names
    assert "script R matrix satisfies the Yang-Baxter equation" in names
    assert "matching diagonal products equal the fourth twist power" in names


def test_triangularity_names_the_first_generator_off_its_side(monkeypatch):
    # two generators across the diagonal made 1 on the empty word: the
    # smaller key is reported, and only it
    orig = envelope.l_functional

    def leaky(bundle, sign, A, B):
        if (sign, A, B) in ((1, 3, 2), (-1, 1, 2)):
            return eps_functional(bundle)
        return orig(bundle, sign, A, B)

    monkeypatch.setattr(envelope, "l_functional", leaky)
    check = verify_envelope_suite(3, 1).find(
        "triangularity of the functional matrices")
    assert (check.status, check.detail) == (
        "fail", "indices (-1,1,2) on I: 1 vs 0")


def test_parameter_collapse_report():
    rep = verify_parameter_collapse(3)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert names == [
        "a mismatched deformation parameter breaks the counit identity",
        "every matching diagonal product collapses to the counit at the "
        "uniparametric point",
    ]
    assert "witness" in rep.checks[0].detail


def test_pairing_axiom_report():
    rep = verify_pairing_axioms(3)
    assert rep.ok
    assert [c.name for c in rep.checks] == [
        "product pairing follows the quotient coproduct",
        "functional coproduct follows the quotient product",
        "antipodes are adjoint under the bracket",
        "units pair with counits",
    ]


def _swap_quotient_coproduct(monkeypatch):
    orig = envelope.costructure

    def swapped(op, a, p):
        out = orig(op, a, p)
        if op == "coproduct":
            out = type(out)(out.alphabet, out.ps, 2,
                            {(w2, w1): c for (w1, w2), c in out.terms.items()})
        return out
    monkeypatch.setattr(envelope, "costructure", swapped)


def _swap_functional_coproduct(monkeypatch):
    orig = envelope.coproduct_functional
    monkeypatch.setattr(envelope, "coproduct_functional",
                        lambda e: [(c, r, l) for c, l, r in orig(e)])


# one broken costructure per axiom and the detail of the first case it
# fails, which names the functionals and letters of that case
PAIRING_WITNESSES = [
    ("product pairing follows the quotient coproduct",
     _swap_quotient_coproduct,
     "products vs coproduct at FunctionalElement((1)*L-[1,1]), "
     "FunctionalElement((1)*L-[2,1]) on x3"),
    ("functional coproduct follows the quotient product",
     _swap_functional_coproduct,
     "functional coproduct vs product at FunctionalElement((1)*L-[2,1]) "
     "on u, x3"),
    ("antipodes are adjoint under the bracket",
     lambda mp: mp.setattr(envelope, "antipode_L", lambda e: e),
     "antipodes disagree at FunctionalElement((1)*L-[1,1]) on u"),
    ("units pair with counits",
     lambda mp: mp.setattr(envelope, "counit_functional",
                           lambda e: e.bundle.geometry.params.zero),
     "unit mismatch at FunctionalElement((1)*L-[1,1])"),
]


@pytest.mark.parametrize("name,breaker,detail", PAIRING_WITNESSES,
                         ids=["product", "coproduct", "antipode", "unit"])
def test_pairing_axioms_name_the_first_failing_case(monkeypatch, name,
                                                    breaker, detail):
    breaker(monkeypatch)
    rep = verify_pairing_axioms(3)
    assert [(c.name, c.detail) for c in rep.failures()] == [(name, detail)]


def test_parameter_collapse_reports_a_relation_witness(monkeypatch):
    monkeypatch.setattr(RMatrixBundle, "uniparametric",
                        property(lambda bundle: bundle))
    rep = verify_parameter_collapse(3)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("every matching diagonal product collapses to the counit at the "
         "uniparametric point", "indices (1) on T[1,1]: s^-4*g12^2 vs 1")]


def test_cone_scan_is_shared_by_limited_sides():
    ps = GEOM5.params
    lam_inv = scalar_invert(ps.s_pow(2) - ps.s_pow(-2))
    # (1/lambda) L+^o_1 is 1 on T[1,o] before and after the limit
    f = word_functional(BUNDLE5, ((1, 1, 2),), lam_inv)
    res = iu_annihilates(f, N, D=2)
    assert show_t_word(GEOM5, res.witness[0]) == "T[1,∘]"
    assert _cone_witness(f, GEOM5, 2) == res.witness
    assert _cone_witness(_mapped(f, limit_r_to_1), GEOM5, 2) == res.witness
    # (1/lambda) L+^o_* is 1 - s^-6 on T[*,o], which vanishes at r = 1
    g = word_functional(BUNDLE5, ((1, 1, 5),), lam_inv)
    assert render_scalar(iu_annihilates(g, N, D=2).witness[1]) == "1 - s^-6"
    assert _cone_witness(_mapped(g, limit_r_to_1), GEOM5, 2) is None


def test_bracket_of_a_limit_side_is_the_limit_of_the_bracket(monkeypatch):
    # the adjoint elements of the r = 1 brackets carry the generic letter
    # values of f, whose poles cancel only across the words of an element
    basis = calculus.tangent_basis("r1", 3)
    seen = []

    def spy(fs, elems):
        seen.append(elems)
        return envelope._brackets(fs, elems)

    monkeypatch.setattr(calculus, "_brackets", spy)
    for f in basis.vectors:
        calculus._brackets_on_letters(basis, f)
    for elems in seen:
        plain = envelope._brackets(dict(enumerate(basis.vectors)), elems)
        want = {key: limit_r_to_1(v) for key, v in plain.items()}
        assert envelope._brackets(
            {j: _mapped(g, limit_r_to_1)
             for j, g in enumerate(basis.vectors)}, elems) == {
                 key: v for key, v in want.items() if v}


def test_pairing_is_linear():
    ps = ISO3.params
    f = l_functional(BUNDLE5, 1, 2, 2)
    a = iso_word("x1", coeff=ps.s_pow(2))
    b = iso_word("x2", "x3")
    left = pairing(f, a + b)
    assert left == pairing(f, a) + pairing(f, b)


# --- the trie walk against the table evaluator it replaced --------------------

def ref_element_matrix(e, k):
    """The evaluation matrix of a functional at T-word length k, rows
    (C1, ..., Ck) and columns (D1, ..., Dk), by the per-length tables the
    engine kept before it walked the word trie: the generator tables grow
    one letter at a time through the R matrix, a product word multiplies
    its letters' tables, and a combination combines its words' tables."""
    bundle = e.bundle
    one = bundle.geometry.params.one

    def mat_mul(m1, m2):
        out = {}
        for r, row in m1.items():
            acc = {}
            for mid, v in row.items():
                for c, w in m2.get(mid, {}).items():
                    _acc(acc, c, v * w)
            if acc:
                out[r] = acc
        return out

    @functools.cache
    def gen_family(sign, k):
        out = {}
        if k == 0:
            for A in bundle.geometry.indices():
                out[(A, A)] = {(): {(): one}}
        elif k == 1:
            tensor = bundle.Rplus if sign > 0 else bundle.Rminus
            for (E, C, F, D), v in tensor.items():
                out.setdefault((E, F), {}).setdefault((C,), {})[(D,)] = v
        else:
            prev = gen_family(sign, k - 1)
            by_first = {}
            for (E, B), mat in gen_family(sign, 1).items():
                by_first.setdefault(E, []).append((B, mat))
            for (A, E), mat in prev.items():
                for B, tail in by_first.get(E, ()):
                    dst = out.setdefault((A, B), {})
                    for Cvec, row in mat.items():
                        for Dvec, v1 in row.items():
                            for (c,), tr in tail.items():
                                drow = dst.setdefault(Cvec + (c,), {})
                                for (d,), v2 in tr.items():
                                    _acc(drow, Dvec + (d,), v1 * v2)
            for pair in list(out):
                mat = out[pair]
                for r in list(mat):
                    if not mat[r]:
                        del mat[r]
                if not mat:
                    del out[pair]
        return out

    def word_matrix(w):
        if not w:
            return {vec: {vec: one}
                    for vec in iproduct(bundle.geometry.indices(), repeat=k)}
        got = gen_family(w[0][0], k).get(w[0][1:], {})
        for sign, A, B in w[1:]:
            got = mat_mul(got, gen_family(sign, k).get((A, B), {}))
        return got

    out = {}
    for w, c in e.terms.items():
        for r, row in word_matrix(w).items():
            dst = out.setdefault(r, {})
            for col, v in row.items():
                _acc(dst, col, c * v)
    return {r: row for r, row in out.items() if row}


def ref_first_difference(pairs, D):
    """_first_difference as the table engine computed it."""
    for k in range(D + 1):
        for key in sorted(pairs):
            ml, mr = (ref_element_matrix(side, k) for side in pairs[key])
            diffs = [(tuple(zip(r, col)), ml.get(r, {}).get(col),
                      mr.get(r, {}).get(col))
                     for r in set(ml) | set(mr)
                     for col in set(ml.get(r, {})) | set(mr.get(r, {}))]
            diffs = [d for d in diffs if d[1] != d[2]]
            if diffs:
                return (key,) + min(diffs, key=lambda d: d[0])
    return None


@st.composite
def functionals(draw, bundle):
    """Combinations of up to four words of at most three L+ / L- letters,
    with Laurent and non-Laurent coefficients."""
    ps = bundle.geometry.params
    M = bundle.geometry.dim
    coeffs = [ps.one, -ps.one, ps.s_pow(2), ps.s_pow(-1) * ps.from_rational(3),
              scalar_invert(ps.s_pow(2) - ps.s_pow(-2))]
    gens = st.tuples(st.sampled_from([1, -1]), st.integers(1, M),
                     st.integers(1, M))
    words = draw(st.lists(st.lists(gens, max_size=3), min_size=1,
                          max_size=4))
    terms = {}
    for w in words:
        _acc(terms, tuple(w), draw(st.sampled_from(coeffs)))
    return envelope.FunctionalElement(bundle, terms)


def walk_matrices(f, D):
    """The values of f on every T-word of length <= D, by length, in the
    table layout."""
    out = {k: {} for k in range(D + 1)}
    for coords, vals in _walk({(): f}, D):
        if () in vals:
            r, col = tuple(zip(*coords)) if coords else ((), ())
            out[len(coords)].setdefault(r, {})[col] = vals[()]
    return out


@pytest.mark.parametrize("bundle", [BUNDLE3, BUNDLE5], ids=["so3", "so5"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_walk_matches_the_table_evaluator(bundle, data):
    f = data.draw(functionals(bundle))
    D = data.draw(st.integers(0, 2))
    got = walk_matrices(f, D)
    for k in range(D + 1):
        assert got[k] == ref_element_matrix(f, k)


@st.composite
def t_elements(draw, pres):
    """Up to four elements of the free matrix-entry algebra on words of at
    most three letters; each word after the first continues a prefix of
    an earlier one, so the words share prefixes in the walk."""
    ps = pres.params
    coeffs = [ps.one, -ps.one, ps.s_pow(3),
              scalar_invert(ps.s_pow(2) - ps.s_pow(-2))]
    letters = st.integers(0, len(pres.alphabet) - 1)
    words = [tuple(draw(st.lists(letters, max_size=3)))]
    for _ in range(draw(st.integers(1, 5))):
        base = draw(st.sampled_from(words))
        head = base[:draw(st.integers(0, len(base)))]
        words.append(head + tuple(draw(st.lists(letters,
                                                max_size=3 - len(head)))))
    elems = {}
    for key in range(draw(st.integers(1, 4))):
        terms = {}
        for w in draw(st.lists(st.sampled_from(words), min_size=1,
                               max_size=3)):
            _acc(terms, w, draw(st.sampled_from(coeffs)))
        elems[key] = AlgebraElement(pres.alphabet, ps, terms)
    return elems


@pytest.mark.parametrize("bundle,pres", [(BUNDLE3, SO3), (BUNDLE5, BIG5)],
                         ids=["so3", "so5"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_restricted_walk_matches_the_table_evaluator(bundle, pres, data):
    # letter g of the free alphabet is T^A_C with g = (A - 1) M + (C - 1)
    M = bundle.geometry.dim
    fs = {key: data.draw(functionals(bundle))
          for key in range(data.draw(st.integers(1, 2)))}
    elems = data.draw(t_elements(pres))
    got = envelope._brackets(fs, elems)
    tables = {}
    for fkey, f in fs.items():
        for ekey, a in elems.items():
            want = bundle.geometry.params.zero
            for w, c in a.terms.items():
                if (fkey, len(w)) not in tables:
                    tables[fkey, len(w)] = ref_element_matrix(f, len(w))
                rows, cols = (tuple(zip(*(divmod(g, M) for g in w)))
                              if w else ((), ()))
                v = tables[fkey, len(w)].get(
                    tuple(A + 1 for A in rows), {}).get(
                        tuple(C + 1 for C in cols))
                if v is not None:
                    want = want + c * v
            assert got.get((fkey, ekey), want.ps.zero) == want
            assert (fkey, ekey) not in got or got[fkey, ekey]


@pytest.mark.parametrize("bundle", [BUNDLE3, BUNDLE5], ids=["so3", "so5"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_first_difference_matches_the_table_engine(bundle, data):
    # g = f + h with h often vanishing on short words, so that the first
    # difference also falls at positive lengths
    D = data.draw(st.integers(0, 2))
    pairs = {}
    for key in range(data.draw(st.integers(1, 3))):
        f = data.draw(functionals(bundle))
        h = data.draw(st.sampled_from(
            [f - f, f, l_functional(bundle, 1, 1, bundle.geometry.dim),
             word_functional(bundle, ((-1, 2, 1), (1, 1, 2)))]))
        pairs[(key,)] = (f, f + h)
    assert _first_difference(pairs, D) == ref_first_difference(pairs, D)


def ref_witnesses(pairs, D):
    """_witnesses as a walk of the two sides of every relation, as the
    keys (key, 0) and (key, 1) of one family, compared word by word: each
    key's first disagreeing word, shortest and then smallest by
    coordinate tuple, with both values.  No difference is formed."""
    found = {}
    for coords, vals in _walk({(k, n): p[n] for k, p in pairs.items()
                               for n in (0, 1)}, D):
        for key in {k for k, _ in vals}:
            a, b = vals.get((key, 0)), vals.get((key, 1))
            if a != b and (key not in found or (len(found[key][0]),
                                                found[key][0])
                           > (len(coords), coords)):
                found[key] = (coords, a, b)
    return found


@functools.cache
def relation_family(name):
    """A relation family {key: (lhs, rhs)} of the N = 3 suite: an
    exchange family or a metric orthogonality family."""
    if name.startswith("metric"):
        _, sign, variant = name.split()
        return _metric_orthogonality(BUNDLE5, int(sign), variant)
    s2, s1 = {"plus-plus": (1, 1), "mixed": (1, -1)}[name]
    return _exchange_relations(BUNDLE5, BUNDLE5.R, s2, s1)


@st.composite
def perturbed_relations(draw):
    """A relation family with one or two of its sides changed in one
    coefficient, or with one word moved to another word."""
    ps = GEOM5.params
    pairs = dict(relation_family(draw(st.sampled_from(
        ["plus-plus", "mixed", "metric 1 upper", "metric -1 lower"]))))
    coeffs = [ps.one, -ps.one, ps.s_pow(2), ps.from_rational(3),
              scalar_invert(ps.lam)]
    gens = st.tuples(st.sampled_from([1, -1]), st.integers(1, GEOM5.dim),
                     st.integers(1, GEOM5.dim))
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(sorted(pairs)))
        n = draw(st.integers(0, 1))
        side = pairs[key][n]
        terms = dict(side.terms)
        w = draw(st.sampled_from(sorted(terms))) if terms else None
        if w is not None and draw(st.booleans()):
            _acc(terms, w, draw(st.sampled_from(coeffs)))
        else:
            c = terms.pop(w) if w is not None else draw(
                st.sampled_from(coeffs))
            _acc(terms, tuple(draw(st.lists(gens, min_size=1, max_size=2))),
                 c)
        new = envelope.FunctionalElement(BUNDLE5, terms)
        pairs[key] = (new, pairs[key][1]) if n == 0 else (pairs[key][0], new)
    return pairs


@settings(max_examples=20, deadline=None)
@given(pairs=perturbed_relations())
def test_witnesses_match_a_walk_of_both_sides(pairs):
    # the difference walk finds each failing key's first word, and the
    # values on it are read from the two sides again
    assert _witnesses(pairs, 2) == ref_witnesses(pairs, 2)


def test_engine_caches_do_not_grow_with_the_degree():
    # every cache of the engine is keyed by a bundle, a sign or a sign
    # pattern; none grows with the words or the degree bound
    caches = {name: fn for name, fn in vars(envelope).items()
              if hasattr(fn, "cache_info")}
    assert caches
    verify_envelope_suite(3, 1)
    sizes = {name: fn.cache_info().currsize for name, fn in caches.items()}
    verify_envelope_suite(3, 2)
    independence_rank(eta_monomials(3, 1), 3, 2)
    assert {name: fn.cache_info().currsize
            for name, fn in caches.items()} == sizes
