"""Free-algebra presentations: the deformed coordinate algebras, their
rewrite systems and normal-form counts, Hopf costructure, the cone
projection onto the inhomogeneous algebra, and ideal membership.

Normal form puts u, v first, then plane coordinates in ascending order,
then rotation letters; the inner rotation sector is deliberately kept
out of the combined system.
"""

import copy
import hashlib
import itertools
import json
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qortho import presentations
from qortho.cli import run
from qortho.itensor import IndexGeometry
from qortho.presentations import (AlgebraElement, Alphabet, IncompleteRules,
                                  NotConfluent, RewriteSystem, TensorElement,
                                  TopDegreeNotOneDimensional,
                                  build_presentation, check_confluence,
                                  check_hopf_ideal, costructure,
                                  derive_rewrite_rules, element_from_json,
                                  element_to_json, expand_certificate,
                                  hilbert_dimension, ideal_membership,
                                  iso_normal_system, merge_rewrite_systems,
                                  project, quantum_determinant, reduce,
                                  section, t_letter, tensor_costructure,
                                  unit_element, word_element, word_key,
                                  zero_element)
from qortho.scalars import specialize
from fractions import Fraction

P3 = build_presentation("iso", 3)
RS3 = iso_normal_system(P3)
A3, PS3 = P3.alphabet, P3.params


def wel(names, coeff=None):
    return word_element(A3, PS3, A3.word(*names), coeff)


def test_iso_alphabet_and_sectors():
    assert A3.symbols == ["u", "v", "x1", "x2", "x3",
                          "T[1,1]", "T[1,2]", "T[1,3]",
                          "T[2,1]", "T[2,2]", "T[2,3]",
                          "T[3,1]", "T[3,2]", "T[3,3]"]
    assert sorted(P3.sectors) == ["dilatation", "inner", "iso-mixed", "plane"]
    assert A3.show_word(()) == "I"
    assert A3.show_word(A3.word("x1", "u")) == "x1 u"
    assert word_key(A3.word("x3")) < word_key(A3.word("u", "u"))


def test_pinned_rewrite_rules():
    g12 = PS3.monomial(1, PS3.mono(0, {(1, 2): 1}))
    expected = {
        ("u", "v"): unit_element(A3, PS3),
        ("x2", "x1"): wel(["x1", "x2"], PS3.s_pow(-2)),
        ("x3", "x2"): wel(["x2", "x3"], PS3.s_pow(-2)),
        ("x3", "x1"): wel(["x1", "x3"]) +
            wel(["x2", "x2"], PS3.s_pow(1) - PS3.s_pow(-1)),
        ("x1", "v"): wel(["v", "x1"], g12),
        ("T[3,2]", "x1"): wel(["x1", "T[3,2]"], PS3.s_pow(-2)),
    }
    for names, rhs in expected.items():
        assert RS3.rules[A3.word(*names)] == rhs, names


def test_reduce_is_idempotent_on_rules():
    for lw, rhs in RS3.rules.items():
        lhs = AlgebraElement(A3, PS3, {lw: PS3.one})
        assert reduce(lhs, RS3) == reduce(rhs, RS3)


def test_confluence_of_combined_system():
    rep = check_confluence(RS3, P3)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "all degree-3 overlaps rejoin" in names
    assert "all leading words have degree 2" in names


def _toy_system(rules):
    """A rewrite system over the letters a < b < c from {leading word:
    right-side words}, every coefficient 1."""
    abc = Alphabet(["a", "b", "c"])
    return RewriteSystem(abc, PS3, {
        abc.word(*lw.split()): AlgebraElement(abc, PS3, {
            abc.word(*w.split()): PS3.one for w in rhs})
        for lw, rhs in rules.items()}, "toy")


def test_confluence_names_the_first_rule_out_of_order():
    # rules are taken in word_key order, whatever their insertion order
    rep = check_confluence(_toy_system(
        {"c b": ["c c"], "c a": ["a c", "c c"], "b a": ["a b"]}), P3)
    check = rep.find("every rule right side precedes its leading word")
    assert (check.status, check.detail) == ("fail", "rule c a -> c c")


def test_confluence_names_the_first_bad_leading_word():
    rep = check_confluence(_toy_system(
        {"c b a": ["a"], "b a": ["a b"], "c c c": ["a"]}), P3)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("all leading words have degree 2", "leading word c b a")]


def test_confluence_names_the_first_overlap_that_does_not_rejoin():
    # b b b rewrites to a b and to b a, both normal; likewise c c c
    rep = check_confluence(_toy_system({"b b": ["a"], "c c": ["a"]}), P3)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("all degree-3 overlaps rejoin",
         "2 overlapping words examined; first failure: b b b")]


def test_sector_errors():
    """iso(N) rewrites its plane, dilatation and iso-mixed sectors,
    plane(N) and exterior(N) their one sector each, and so(M) none; every
    other pair, iso's inner sector included, is a ValueError."""
    sectors = ("plane", "dilatation", "iso-mixed", "exterior", "inner",
               "so-swap", "no-such-sector")
    accepted = {"so": (), "iso": ("plane", "dilatation", "iso-mixed"),
                "plane": ("plane",), "exterior": ("exterior",)}
    for kind, good in accepted.items():
        p = build_presentation(kind, 3)
        for sector in sectors:
            if sector in good:
                assert derive_rewrite_rules(p, sector).rules
            else:
                with pytest.raises(ValueError) as info:
                    derive_rewrite_rules(p, sector)
                assert not isinstance(info.value, IncompleteRules)


@pytest.mark.parametrize("kind, sector, edit, message", [
    ("exterior", "exterior", lambda p, rows: rows[1:],
     "exterior sector of exterior(3): missing rules for [dx1 dx1], "
     "unexpected pivots at []"),
    ("iso", "dilatation", lambda p, rows: rows[1:],
     "dilatation sector of iso(3): missing rules for [u v], unexpected "
     "pivots at []"),
    ("plane", "plane", lambda p, rows: rows + [
        p.element({p.alphabet.word("x1", "x1"): p.params.one})],
     "plane sector of plane(3): missing rules for [], unexpected pivots "
     "at [x1 x1]"),
], ids=["exterior-row-dropped", "dilatation-row-dropped", "plane-row-added"])
def test_rules_whose_pivots_differ_from_the_stated_ones_are_refused(
        kind, sector, edit, message):
    """A sector whose elimination ends on other leading words than its
    presentation states: a dropped row leaves a stated pivot missing, an
    added row makes one more."""
    p = copy.copy(build_presentation(kind, 3))
    p.sectors = {**p.sectors, sector: edit(p, p.sectors[sector])}
    with pytest.raises(IncompleteRules) as info:
        derive_rewrite_rules(p, sector)
    assert str(info.value) == message


def test_plane_dimensions_match_commutative_counts():
    for N in (3, 4):
        p = build_presentation("iso", N)
        rs = iso_normal_system(p)
        xs = ["x%d" % k for k in range(1, N + 1)]
        got = [hilbert_dimension(p, rs, d, letters=xs) for d in range(5)]
        assert got == [comb(N + d - 1, d) for d in range(5)]


def test_exterior_dimensions_are_binomial():
    for N in (3, 4):
        ext = build_presentation("exterior", N)
        ers = derive_rewrite_rules(ext, "exterior")
        got = [hilbert_dimension(ext, ers, d) for d in range(N + 3)]
        assert got == [comb(N, d) for d in range(N + 1)] + [0, 0]
        assert got[N] == 1


def test_quantum_determinant_terms():
    qd = quantum_determinant(3)
    B = qd.alphabet
    ps = qd.ps
    s = ps.s_pow(1)
    expected = {
        ("T[1,1]", "T[2,2]", "T[3,3]"): ps.one,
        ("T[1,1]", "T[2,3]", "T[3,2]"): -ps.r,
        ("T[1,2]", "T[2,1]", "T[3,3]"): -ps.r,
        ("T[1,2]", "T[2,2]", "T[3,2]"): s - s * ps.r,
        ("T[1,2]", "T[2,3]", "T[3,1]"): ps.r,
        ("T[1,3]", "T[2,1]", "T[3,2]"): ps.r,
        ("T[1,3]", "T[2,2]", "T[3,1]"): -(ps.r * ps.r),
    }
    assert qd.terms == {B.word(*names): c for names, c in expected.items()}


def test_quantum_determinant_classical_limit():
    qd = quantum_determinant(3)
    B = qd.alphabet
    signs = {}
    for w, c in qd.terms.items():
        val = specialize(c, {"s": Fraction(1)})
        if val:
            signs[tuple(B.symbols[i] for i in w)] = val
    # six permutations with their signs, the seventh term vanishes at s=1
    assert signs == {
        ("T[1,1]", "T[2,2]", "T[3,3]"): 1,
        ("T[1,1]", "T[2,3]", "T[3,2]"): -1,
        ("T[1,2]", "T[2,1]", "T[3,3]"): -1,
        ("T[1,2]", "T[2,3]", "T[3,1]"): 1,
        ("T[1,3]", "T[2,1]", "T[3,2]"): 1,
        ("T[1,3]", "T[2,2]", "T[3,1]"): -1,
    }


def brute_force_determinant(N):
    """quantum_determinant by reducing every one of the N^N exterior words
    on its own, with no pruning."""
    ext = build_presentation("exterior", N)
    rs = derive_rewrite_rules(ext, "exterior")
    vol = tuple(range(N))
    acc = {}
    for bs in itertools.product(range(N), repeat=N):
        nf = reduce(word_element(ext.alphabet, ext.params, bs), rs)
        assert set(nf.terms) <= {vol}
        if nf:
            tword = tuple(t_letter(N, a + 1, b + 1) for a, b in enumerate(bs))
            acc[tword] = nf.terms[vol]
    sop = build_presentation("so", N)
    return AlgebraElement(sop.alphabet, sop.params, acc)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_quantum_determinant_matches_the_unpruned_reduction(N):
    qd, want = quantum_determinant(N), brute_force_determinant(N)
    assert qd.alphabet is want.alphabet
    # the same terms, inserted in the same (lexicographic) order
    assert list(qd.terms.items()) == list(want.terms.items())


def test_quantum_determinant_prunes_vanishing_prefixes(monkeypatch):
    calls, systems = [0], []
    real_reduce = presentations.reduce
    real_derive = presentations.derive_rewrite_rules

    def counted(e, rs):
        calls[0] += 1
        return real_reduce(e, rs)

    def kept(p, sector):
        systems.append(real_derive(p, sector))
        return systems[-1]
    monkeypatch.setattr(presentations, "reduce", counted)
    monkeypatch.setattr(presentations, "derive_rewrite_rules", kept)
    quantum_determinant(6)
    # reducing all 6^6 words one by one makes 46,677 calls and leaves
    # 46,656 cached normal forms
    assert calls[0] < 10000 and len(systems[-1]._nf) < 1000


def perturb_exterior_rule(monkeypatch):
    """Scale the rule dx2 dx1 -> -s^2 dx1 dx2 of every exterior system by
    s: its leading words stay, but the overlap dx2 dx2 dx2 (the first in
    word order) no longer rejoins."""
    real = presentations.derive_rewrite_rules

    def perturbed(p, sector):
        rs = real(p, sector)
        lw = p.alphabet.word("dx2", "dx1")
        rules = dict(rs.rules)
        rules[lw] = rules[lw].scale(p.params.s)
        return RewriteSystem(rs.alphabet, rs.ps, rules, rs.sector)
    monkeypatch.setattr(presentations, "derive_rewrite_rules", perturbed)


def test_quantum_determinant_refuses_rules_that_are_not_confluent(
        monkeypatch):
    perturb_exterior_rule(monkeypatch)

    def walked(*args):
        raise AssertionError("walked a system that is not confluent")
    monkeypatch.setattr(presentations, "_nonzero_normal_forms", walked)
    with pytest.raises(NotConfluent) as err:
        quantum_determinant(3)
    assert str(err.value) == (
        "confluence of exterior rules for exterior(3): [FAIL] all degree-3 "
        "overlaps rejoin -- 10 overlapping words examined; first failure: "
        "dx2 dx2 dx2")


def test_det_exits_three_on_rules_that_are_not_confluent(monkeypatch,
                                                          capsys):
    perturb_exterior_rule(monkeypatch)
    assert run(["det", "--n", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "presentation precondition failed: confluence of exterior rules for "
        "exterior(3): [FAIL] all degree-3 overlaps rejoin -- 10 overlapping "
        "words examined; first failure: dx2 dx2 dx2\n")


def test_quantum_determinant_names_a_word_off_the_volume_line(monkeypatch):
    real = presentations._nonzero_normal_forms

    def strayed(rs, letters, length):
        for w, nf in real(rs, letters, length):
            if w == (2, 1, 0):
                nf = nf + word_element(rs.alphabet, rs.ps, (0, 0, 1))
            yield w, nf
    monkeypatch.setattr(presentations, "_nonzero_normal_forms", strayed)
    with pytest.raises(TopDegreeNotOneDimensional,
                       match="^normal form of dx3 dx2 dx1 leaves the volume "
                             "line: dx1 dx1 dx2$"):
        quantum_determinant(3)


def test_coproduct_of_translation():
    cop = costructure("coproduct", wel(["x1"]), P3)
    assert isinstance(cop, TensorElement)
    expected = {
        (A3.word("x1"), A3.word("v")): PS3.one,
        (A3.word("T[1,1]"), A3.word("x1")): PS3.one,
        (A3.word("T[1,2]"), A3.word("x2")): PS3.one,
        (A3.word("T[1,3]"), A3.word("x3")): PS3.one,
    }
    assert cop.terms == expected


def test_counit_values():
    assert costructure("counit", wel(["u"]), P3) == unit_element(A3, PS3)
    assert costructure("counit", wel(["x2"]), P3) == zero_element(A3, PS3)
    assert costructure("counit", wel(["T[1,2]"]), P3) == zero_element(A3, PS3)
    assert costructure("counit", wel(["T[2,2]"]), P3) == unit_element(A3, PS3)


def test_coassociativity_and_counit_law():
    for name in ("u", "x2", "T[1,3]"):
        cop = costructure("coproduct", wel([name]), P3)
        left = tensor_costructure(cop, 0, "coproduct", P3)
        right = tensor_costructure(cop, 1, "coproduct", P3)
        assert left.terms == right.terms
        lcu = tensor_costructure(cop, 0, "counit", P3)
        rcu = tensor_costructure(cop, 1, "counit", P3)
        assert lcu.terms == {(A3.word(name),): PS3.one}
        assert rcu.terms == {(A3.word(name),): PS3.one}


def test_antipode_law_on_coordinate_letters():
    for name in ("u", "v", "x1", "x2", "x3"):
        a = wel([name])
        cop = costructure("coproduct", a, P3)
        acc = zero_element(A3, PS3)
        for (w1, w2), c in cop.terms.items():
            ka = costructure("antipode", word_element(A3, PS3, w1), P3)
            acc = acc + (ka * word_element(A3, PS3, w2)).scale(c)
        assert reduce(acc, RS3) == reduce(costructure("counit", a, P3), RS3)


def test_antipode_on_the_first_tensor_factor():
    """m (S (x) id) Delta a = eps(a), with S applied to the first factor
    of Delta a by tensor_costructure."""
    for name in ("u", "v", "x1", "x2", "x3"):
        a = wel([name])
        left = tensor_costructure(costructure("coproduct", a, P3), 0,
                                  "antipode", P3)
        assert left.arity == 2
        product = zero_element(A3, PS3)
        for (w1, w2), c in left.terms.items():
            product = product + word_element(A3, PS3, w1 + w2, c)
        assert reduce(product, RS3) == \
            reduce(costructure("counit", a, P3), RS3)


def test_costructure_rejects_unknown_maps_and_positions():
    a = wel(["x1"])
    cop = costructure("coproduct", a, P3)
    with pytest.raises(ValueError, match="unknown costructure"):
        costructure("frobnicate", a, P3)
    with pytest.raises(ValueError, match="unknown costructure"):
        tensor_costructure(cop, 0, "frobnicate", P3)
    for pos in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            tensor_costructure(cop, pos, "counit", P3)


def test_hopf_ideal_report():
    rep = check_hopf_ideal(3)
    assert rep.ok and len(rep.checks) == 22
    names = [c.name for c in rep.checks]
    assert names[0] == "H has 2N+1 generators"
    assert "coproduct of T[1,∘] splits through H" in names
    assert "counit kills T[1,∘]" in names
    assert "antipode keeps T[1,∘] inside H" in names


def test_hopf_ideal_shows_a_nonzero_counit(monkeypatch):
    orig = presentations.costructure

    def unit_counit(op, e, p):
        if op == "counit" and e == p.element({p.alphabet.word("T[1,∘]"):
                                              p.params.one}):
            return unit_element(p.alphabet, p.params)
        return orig(op, e, p)

    monkeypatch.setattr(presentations, "costructure", unit_counit)
    rep = check_hopf_ideal(3)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("counit kills T[1,∘]", "counit gives (1)*I")]


def test_hopf_ideal_names_the_first_coproduct_term_outside_h(monkeypatch):
    """Two planted terms outside H: the detail names the first of them in
    the coproduct's term order, and only that one."""
    orig = presentations.costructure

    def stray_coproduct(op, e, p):
        out = orig(op, e, p)
        if op == "coproduct" and e == p.element(
                {p.alphabet.word("T[1,∘]"): p.params.one}):
            oo, o1 = p.alphabet.word("T[∘,∘]"), p.alphabet.word("T[∘,1]")
            out = out._like({**out.terms, (oo, oo): p.params.one,
                             (o1, o1): p.params.one})
        return out

    monkeypatch.setattr(presentations, "costructure", stray_coproduct)
    rep = check_hopf_ideal(3)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("coproduct of T[1,∘] splits through H",
         "term outside H: T[∘,∘] (x) T[∘,∘]")]


BIG5 = build_presentation("so", 5, embedded=True)
B5 = BIG5.alphabet


def big_letter(name):
    return word_element(B5, BIG5.params, B5.word(name))


def test_costructure_rejects_a_foreign_alphabet():
    """Letter ids of another alphabet are refused, not read as this
    alphabet's own: T[∘,∘] is so(5) letter 0 (u in iso(3)), and T[•,∘]
    is letter 20, past the end of the iso(3) tables."""
    for name in ("T[∘,∘]", "T[•,∘]"):
        elem = big_letter(name)
        for op in ("coproduct", "counit", "antipode"):
            with pytest.raises(ValueError,
                               match=r"not over the iso\(3\) alphabet"):
                costructure(op, elem, P3)
        with pytest.raises(ValueError, match=r"not over the iso\(3\)"):
            tensor_costructure(
                TensorElement(B5, BIG5.params, 1, {(B5.word(name),): PS3.one}),
                0, "antipode", P3)


def test_projection_of_cone_rows():
    assert reduce(project(big_letter("T[∘,2]"), P3), RS3) == \
        reduce(P3.derived["y2"], RS3)
    assert reduce(project(big_letter("T[∘,•]"), P3), RS3) == \
        reduce(P3.derived["z"], RS3)
    assert project(big_letter("T[1,∘]"), P3) == zero_element(A3, PS3)
    assert project(big_letter("T[∘,∘]"), P3) == wel(["u"])
    assert project(big_letter("T[1,2]"), P3) == wel(["T[1,2]"])


def test_projection_kills_exactly_the_cone_ideal():
    """H is generated by T^a_o, T^*_b and T^*_o, in that order, and P
    sends those so(5) letters, and no others, to zero."""
    geom = IndexGeometry(5, embedded=True)
    assert geom.cone_ideal() == [(2, 1), (3, 1), (4, 1),
                                 (5, 2), (5, 3), (5, 4), (5, 1)]
    killed = {(A, B) for A in geom.indices() for B in geom.indices()
              if not project(word_element(B5, BIG5.params,
                                          (t_letter(5, A, B),)), P3)}
    assert killed == set(geom.cone_ideal())


def test_section_splits_projection():
    for name in A3.symbols:
        e = wel([name])
        assert reduce(project(section(e, P3), P3), RS3) == reduce(e, RS3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(B5.symbols), min_size=0, max_size=2),
       st.lists(st.sampled_from(B5.symbols), min_size=0, max_size=2))
def test_projection_is_multiplicative(n1, n2):
    e1 = word_element(B5, BIG5.params, B5.word(*n1))
    e2 = word_element(B5, BIG5.params, B5.word(*n2))
    joint = reduce(project(e1 * e2, P3), RS3)
    split = reduce(project(e1, P3) * project(e2, P3), RS3)
    assert joint == split


def test_membership_with_certificate():
    rel = wel(["x2", "x1"]) + wel(["x1", "x2"], -PS3.s_pow(-2))
    res = ideal_membership(rel, P3, bound=2)
    assert res.member and res.certificate
    assert expand_certificate(res.certificate, P3) == rel
    miss = ideal_membership(wel(["x1"]), P3, bound=2)
    assert not miss.member and miss.certificate is None


def test_element_json_round_trip():
    e = wel(["x1", "u"], PS3.s_pow(2)) + wel(["v"], -PS3.one)
    payload = element_to_json(e)
    words = [rec["word"] for rec in payload]
    assert words == sorted(words, key=lambda w: (len(w), [A3.index[n] for n in w]))
    assert element_from_json(A3, PS3, payload) == e


@pytest.mark.parametrize("args, count, digest", [
    (("iso", 3), 155,
     "12b5ef2c4f332525bd87cc5bd3b892d5e090ef1ebc142d8b636895938453b4dc"),
    (("iso", 4), 390,
     "4145cfe7d9ef1094d5a0e7e47a743c4fcd7b5444edb08b87c5cf79a8e45255a5"),
    (("so", 5, True), 659,
     "323d377b9ecc2cb896628d198dc7bc603e9f5cc76910693a996c65c5bb4854cb"),
    (("plane", 3), 7,
     "b1526a558fd159e638e6e5bc0c834d4f88f5c00df761ea0a96eb913a6a654170"),
    (("plane", 4), 12,
     "7148103aafda1edbebc01b1765edac6810e36a47f35aab6ff3d54249e32c52b2"),
    (("exterior", 3), 9,
     "1c284795ec28b6147fde6b29e3156c3bb770b8d3dc73d6d82f6e11c27889c6ec"),
    (("exterior", 4), 16,
     "7842fc7ca76f332b650e0c2c142c86113c1bd159e87f8ee035b9c2de6bbb68cc"),
])
def test_relation_lists_are_pinned(args, count, digest):
    """Every relation and every sector, iso's inner sector included,
    byte for byte as JSON."""
    p = build_presentation(*args)
    doc = {"relations": [element_to_json(r) for r in p.relations],
           "sectors": {k: [element_to_json(r) for r in v]
                       for k, v in sorted(p.sectors.items())}}
    got = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert (len(p.relations), got) == (count, digest)


def test_letter_numbering():
    """T^A_B is letter t_letter(M, A, B) of so(M), and iso(N) keeps the
    same order for its T^a_b after u, v and the x^a."""
    for M, embedded in ((3, False), (5, True)):
        geom = build_presentation("so", M, embedded).geometry
        symbols = build_presentation("so", M, embedded).alphabet.symbols
        assert [symbols[t_letter(M, A, B)] for A in geom.indices()
                for B in geom.indices()] == symbols
    assert [A3.symbols[2 + 3 + t_letter(3, a, b)] for a in (1, 2, 3)
            for b in (1, 2, 3)] == A3.symbols[5:]
    assert section(wel(["u", "v", "x2", "T[3,1]"]), P3).terms == {
        tuple(t_letter(5, A, B) for A, B in ((1, 1), (5, 5), (3, 5), (4, 2))):
        PS3.one}
