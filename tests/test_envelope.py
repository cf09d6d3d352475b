"""Regular functionals on the deformed function algebras: the L+ / L-
matrices read off the R-matrix, the Hopf structure they carry, the
subalgebra annihilating the cone ideal, and the induced pairing with
the inhomogeneous coordinate algebra.

Functional words evaluate through matrix products, so every identity
is checked degree by degree on spanning sets of T words.
"""

import pytest

from qortho import envelope
from qortho.envelope import (EPS_WORD, AnnihilationResult,
                             _cone_cases, _exchange_residual,
                             _first_difference, _mapped,
                             _render_exchange_witness,
                             antipode_L, eps_functional, eta_monomials,
                             eval_functional,
                             functional_equal, functional_from_json,
                             functional_to_json, gen_tag, independence_rank,
                             iu_annihilates, iu_generators, l_functional,
                             pairing, show_t_word, tag_gen,
                             verify_envelope_suite, verify_pairing_axioms,
                             verify_parameter_collapse, word_functional,
                             NotInIU)
from qortho.itensor import IndexGeometry
from qortho.presentations import build_presentation, word_element
from qortho.report import first_failure
from qortho.rmatrix import build_bundle
from qortho.scalars import limit_r_to_1, render_scalar, scalar_invert

GEOM3 = IndexGeometry(3)
BUNDLE3 = build_bundle(GEOM3)
SO3 = build_presentation("so", 3)

N = 3
GEOM5 = IndexGeometry(N + 2, embedded=True)
BUNDLE5 = build_bundle(GEOM5)
ISO3 = build_presentation("iso", N)


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


def test_first_difference_order():
    one = GEOM3.params.one
    # key (1,) first differs at length 2, on two words whose order by
    # coordinate tuple is the reverse of their (row, column) order
    late = {(1, 1): {(5, 5): one}, (1, 2): {(3, 1): one}}
    pairs = {(1,): (lambda k: late if k == 2 else {}, lambda k: {}),
             (2,): (lambda k: {(2,): {(1,): one}} if k else {},
                    lambda k: {})}
    assert _first_difference(pairs, 2) == ((2,), ((2, 1),), one, None)
    del pairs[(2,)]
    assert _first_difference(pairs, 1) is None
    assert _first_difference(pairs, 2) == ((1,), ((1, 3), (2, 1)), one, None)


def test_pairing_values():
    ps = ISO3.params
    assert pairing(l_functional(BUNDLE5, -1, 1, 1), iso_word("u")) == ps.s_pow(-2)
    assert pairing(l_functional(BUNDLE5, -1, 1, 1), iso_word("v")) == ps.s_pow(2)
    assert pairing(eps_functional(BUNDLE5), iso_word()) == ps.one
    assert pairing(eps_functional(BUNDLE5), iso_word("x1")) == ps.zero


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
    bad = word_functional(BUNDLE5, ((1, 1, 2),))
    with pytest.raises(NotInIU):
        pairing(bad, iso_word("x1"), check=True)


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
        w = _exchange_residual(BUNDLE5, BUNDLE5.Rinv, s2, s1, 1, **masks)
        assert w is not None
        (A, B, C, D, x), lv, rv = w
        assert lv != rv and len(x) == 1
        text = _render_exchange_witness(GEOM5, w)
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
    w = _exchange_residual(BUNDLE5, BUNDLE5.Rinv, s2, s1, 2, **masks)
    assert _render_exchange_witness(GEOM5, w) == text


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
    monkeypatch.setattr(envelope, "merge_deformations", lambda v: v)
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
    assert first_failure(_cone_cases(f, GEOM5, 2)) == res.witness + (None,)
    assert first_failure(_cone_cases(_mapped(f, limit_r_to_1), GEOM5, 2)) \
        == res.witness + (None,)
    # (1/lambda) L+^o_* is 1 - s^-6 on T[*,o], which vanishes at r = 1
    g = word_functional(BUNDLE5, ((1, 1, 5),), lam_inv)
    assert render_scalar(iu_annihilates(g, N, D=2).witness[1]) == "1 - s^-6"
    assert first_failure(_cone_cases(_mapped(g, limit_r_to_1), GEOM5, 2)) \
        is None


def test_pairing_is_linear():
    ps = ISO3.params
    f = l_functional(BUNDLE5, 1, 2, 2)
    a = iso_word("x1", coeff=ps.s_pow(2))
    b = iso_word("x2", "x3")
    left = pairing(f, a + b)
    assert left == pairing(f, a) + pairing(f, b)
