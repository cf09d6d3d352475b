"""Tangent vectors of the projected bicovariant calculus, their
quantum-Lie brackets, the induced exterior differential with its
deformed Leibniz rule, and the adjoint coaction on the invariant
one-forms.

The projected basis acts on the inhomogeneous algebra directly; the
rotation-augmented basis exists only after the one-parameter limit, so
all of its identities are checked through exact limits of the values
and brackets (calculus._view).
"""

import pytest

import qortho.scalars as scalar_module
from qortho import calculus, envelope
from qortho.cli import run
from qortho.calculus import (TangentBasis, adjoint_coaction_check,
                             adjoint_entries, bimodule_commute, build_chi,
                             differential, leibniz_check,
                             structure_constants, tangent_basis, verify_qlie)
from qortho.envelope import iu_annihilates, word_functional
from qortho.scalars import canonical_q, limit_r_to_1, scalar_invert
from qortho.presentations import (build_presentation, costructure,
                                  iso_normal_system, reduce, unit_element,
                                  word_element, zero_element)

P3 = build_presentation("iso", 3)
A3, PS3 = P3.alphabet, P3.params
RS3 = iso_normal_system(P3)
BAS3 = tangent_basis("projected", 3)


def iso_word(*names, coeff=None):
    return word_element(A3, PS3, A3.word(*names), coeff)


def test_projected_basis_labels():
    assert BAS3.labels == ["omega[1]", "omega[2]", "omega[3]",
                           "omega[o]", "omega[*]"]
    assert tangent_basis("projected", 4).labels == [
        "omega[1]", "omega[2]", "omega[3]", "omega[4]",
        "omega[o]", "omega[*]"]


def test_r1_basis_labels():
    bas = tangent_basis("r1", 3)
    assert bas.labels == ["Omega[2,3]", "Omega[3,2]", "Omega[3,3]",
                          "Omega[*,1]", "Omega[*,2]", "Omega[*,3]",
                          "Omega[*,*]"]
    # the r = 1 basis is read through the exact limit, the projected one
    # as it is
    assert calculus._view(bas.kind, bas.vectors[0]).fn is limit_r_to_1
    assert calculus._view(BAS3.kind, BAS3.vectors[0]) is BAS3.vectors[0]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        tangent_basis("classical", 3)


def test_tangent_vectors_annihilate_cone_ideal():
    for chi in BAS3.vectors:
        assert iu_annihilates(chi, 3, D=2).ok


def test_rotation_rows_do_not_project():
    # the discarded rows fail on the cone ideal, so the projected basis
    # is exactly the surviving corner
    M = 5
    for a in range(1, 4):
        bad = build_chi(a + 1, M, 3)
        assert not iu_annihilates(bad, 3, D=2).ok


def test_differential_of_translation():
    d = dict((lab, e) for e, lab in differential(iso_word("x1"), BAS3))
    g12 = PS3.monomial(1, PS3.mono(0, {(1, 2): 1}))
    assert d["omega[1]"] == iso_word("T[1,1]", coeff=-(PS3.s_pow(-2) * g12))
    assert d["omega[2]"] == iso_word("T[1,2]", coeff=-PS3.one)
    assert d["omega[o]"] == zero_element(A3, PS3)
    assert d["omega[*]"] == iso_word("x1", coeff=-PS3.s_pow(-2))


def test_differential_of_unit_vanishes():
    d = differential(unit_element(A3, PS3), BAS3)
    assert all(e == zero_element(A3, PS3) for e, _ in d)


def test_differential_of_dilatation_sits_on_the_corner():
    for name in ("u", "v"):
        d = dict((lab, e) for e, lab in differential(iso_word(name), BAS3))
        for lab, e in d.items():
            if lab != "omega[*]":
                assert e == zero_element(A3, PS3), (name, lab)
        assert d["omega[*]"] != zero_element(A3, PS3)


def test_bimodule_unit_is_diagonal():
    fm = bimodule_commute(BAS3, unit_element(A3, PS3))
    for i in range(5):
        for j in range(5):
            want = unit_element(A3, PS3) if i == j else zero_element(A3, PS3)
            assert fm[i][j] == want


def test_bimodule_requires_projected_basis():
    bas = tangent_basis("r1", 3)
    with pytest.raises(ValueError):
        bimodule_commute(bas, unit_element(A3, PS3))


def test_leibniz_on_translations():
    ok, witness = leibniz_check(BAS3, iso_word("x1"), iso_word("x2"))
    assert ok and witness is None
    ok, witness = leibniz_check(BAS3, iso_word("x3"), iso_word("u"))
    assert ok and witness is None


def test_structure_constants_count():
    sc = structure_constants(BAS3)
    assert len(sc) == 11
    assert all(len(row) == 4 for row in sc)
    assert len(structure_constants(tangent_basis("projected", 4))) == 14


def test_projected_suite():
    rep = verify_qlie("projected", 3, 2)
    assert rep.ok and len(rep.checks) == 8
    names = [c.name for c in rep.checks]
    assert "circle vector exchanges with a translation" in names
    assert "antisymmetrized translation products vanish" in names
    assert "circle vector reduces to a metric square of translations" in names
    assert "deformed brackets close on the basis at degree one" in names


def test_r1_suite_quick():
    rep = verify_qlie("r1", 3, 1)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "tangent vectors annihilate the cone ideal after the limit" in names
    assert "rotation brackets close with metric corrections" in names
    assert "mirror tangent vectors are proportional" in names


def test_adjoint_entries_table():
    entries = {ent.indices: ent.value for ent in adjoint_entries(3)}
    assert len(entries) == 25
    assert entries[(1, 1)] == iso_word("v", "v")
    assert entries[(1, 2)] == zero_element(A3, PS3)
    assert entries[(5, 5)] == unit_element(A3, PS3)
    # rotation-rotation block carries v times an antipoded rotation letter
    kap = costructure("antipode", iso_word("T[2,2]"), P3)
    assert entries[(3, 3)] == reduce(iso_word("v") * kap, RS3)


def test_adjoint_report():
    rep = adjoint_coaction_check(3)
    assert rep.ok and len(rep.checks) == 9
    names = [c.name for c in rep.checks]
    assert names[0] == "circle-circle entry equals v squared"
    assert "bullet-circle entry gives the metric square of translations" in names
    assert names[-1] == "bullet-bullet entry equals the unit"


@pytest.mark.parametrize("kind,name", [
    ("projected", "tangent vectors annihilate the cone ideal"),
    ("r1", "tangent vectors annihilate the cone ideal after the limit")])
def test_cone_check_names_the_first_failing_vector(monkeypatch, kind, name):
    # (1/lambda) L+^o_1 is 1 on T[1,o], before and after the r = 1 limit
    orig = tangent_basis

    def with_bad(kind, N):
        basis = orig(kind, N)
        ps = basis.bundle.geometry.params
        bad = word_functional(basis.bundle, ((1, 1, 2),),
                              scalar_invert(ps.s_pow(2) - ps.s_pow(-2)))
        return TangentBasis(kind, N, basis.labels + ["bad"],
                            basis.vectors + [bad])

    monkeypatch.setattr(calculus, "tangent_basis", with_bad)
    got = verify_qlie(kind, 3, 1).find(name)
    assert got.status == "fail" and got.detail == "bad on T[1,∘]"


def test_adjoint_check_names_the_first_wrong_entry(monkeypatch):
    orig = adjoint_entries

    def doubled(N):
        return [e._replace(value=e.value + e.value) if e.indices == (2, 3)
                else e for e in orig(N)]

    monkeypatch.setattr(calculus, "adjoint_entries", doubled)
    rep = adjoint_coaction_check(3)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("rotation-rotation entries give antipoded rotation letters",
         "entry (1,2)")]


def test_qlie_rows_report_in_the_first_difference_order(monkeypatch):
    # row b = 1 of the first relation fails on a two-letter word and row
    # b = 3 on a one-letter word: the shorter word comes first, whatever
    # the row order
    one = BAS3.bundle.geometry.params.one
    circ = ((1, 1),)
    walks = []

    def stub(pairs, D):
        walks.append(D)
        keys = list(pairs)
        return {keys[0]: (circ + circ, one, None), keys[2]: (circ, one, None)}

    monkeypatch.setattr(calculus, "_witnesses", stub)
    rep = verify_qlie("projected", 3, 1)
    assert walks == [1]
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("circle vector exchanges with a translation",
         "indices (3,), T[∘,∘]: 1 vs 0")]
    rows = calculus.lie_rows("projected", 3, 1)
    assert walks == [1, 1]
    assert [(row["indices"], row.get("witness")) for row in rows[:3]] == [
        ([1], "T[∘,∘] T[∘,∘]: 1 vs 0"), ([2], None), ([3], "T[∘,∘]: 1 vs 0")]


def test_r1_limits_never_canonicalize_a_product(monkeypatch, capsys):
    """Every value of a side mapped to r = 1 is a Laurent sum v with the
    side's common-denominator scale beside it; limit_r_to_1 takes the
    limit of v * scale from Taylor coefficients at s = 1, so the side
    maps that envelope._finish applies at r = 1 reach no _canon.  (An
    unmapped side with a scale is multiplied out there, as before.)  The
    spy on the limit sees exactly the values that _finish is handed to
    map through the limit with a scale."""
    depth = {"finish": 0, "limit": 0}
    calls = {"scaled_in_finish": 0, "canon_in_limit": 0, "scaled_maps": 0}
    real_finish, real_canon = envelope._finish, scalar_module._canon
    real_limit = scalar_module.limit_r_to_1

    def inside(name, real, *args):
        depth[name] += 1
        try:
            return real(*args)
        finally:
            depth[name] -= 1

    def limit(a, scale=None):
        calls["scaled_in_finish"] += bool(depth["finish"]) and (
            scale is not None)
        return inside("limit", real_limit, a, scale)

    def canon(*args):
        calls["canon_in_limit"] += bool(depth["limit"])
        return real_canon(*args)

    def finish(vals, fns):
        calls["scaled_maps"] += sum(fns[key][0] is limit
                                    and fns[key][1] is not None
                                    for key in vals if key in fns)
        return inside("finish", real_finish, vals, fns)

    monkeypatch.setattr(envelope, "_finish", finish)
    monkeypatch.setattr(scalar_module, "_canon", canon)
    monkeypatch.setattr(calculus, "limit_r_to_1", limit)
    assert run(["verify", "--suite", "calculus-r1", "--n", "3"]) == 0
    capsys.readouterr()
    assert calls["scaled_maps"] > 0
    assert calls["scaled_in_finish"] == calls["scaled_maps"]
    assert calls["canon_in_limit"] == 0


# ---------------------------------------------------------------------------
# the q-Lie rows read by the coproduct

def _expanded(side, generic=None):
    """The FunctionalElement that a _Factored side multiplies out to,
    each factor replaced by its generic vector in generic, if given."""
    out = envelope.FunctionalElement(side.bundle, {})
    for factors, c in side.terms.items():
        fs = [generic[f] for f in factors] if generic else factors
        product = fs[0]
        for f in fs[1:]:
            product = product * f
        out = out + product.scale(c)
    return out


def _viewed(vectors):
    """Each vector as one factor read through the r = 1 view, with
    coefficient 1, as _lie_families builds the r = 1 rows."""
    return [envelope._Factored(v.bundle, {
        (calculus._view("r1", v),): v.bundle.geometry.params.one})
        for v in vectors]


def _by_word(walk, family, D):
    return {coords: vals for coords, vals in walk(family, D) if vals}


def _convolution_matches_the_walk(kind, pairs, D):
    """The convolution of the values of the basis vectors numbered by
    each pair is the walk of their multiplied-out product on every word
    of length <= D, at generic parameters.  At r = 1 the limit of a
    product is the product of the limits: the convolution over the
    viewed vectors, with the limit of a deformation factor as the
    coefficient, is the walk of the view of the generic product with
    that factor."""
    vectors = tangent_basis(kind, 3).vectors
    factored = {(i, j): envelope._factored(vectors[i])
                * envelope._factored(vectors[j]) for i, j in pairs}
    expanded = {key: _expanded(side) for key, side in factored.items()}
    got = _by_word(envelope._convolve, factored, D)
    assert got == _by_word(envelope._walk, expanded, D)
    assert len(got) > 100
    if kind == "r1":
        views = _viewed(vectors)
        c = canonical_q(vectors[0].bundle.geometry.params, 1, 4)  # s^4/g12
        got = _by_word(envelope._convolve, {
            (i, j): calculus._view("r1", (views[i] * views[j]).scale(c))
            for i, j in pairs}, D)
        assert got == _by_word(envelope._walk, {
            key: calculus._view("r1", side.scale(c))
            for key, side in expanded.items()}, D)
        assert len(got) > 100


@pytest.mark.parametrize("kind", ["r1", "projected"])
def test_convolution_products_match_the_walk_of_the_expanded_product(kind):
    """Every ordered pair of basis vectors on the words of length <= 2."""
    n = len(tangent_basis(kind, 3).vectors)
    _convolution_matches_the_walk(
        kind, [(i, j) for i in range(n) for j in range(n)], 2)


@pytest.mark.parametrize("kind", ["r1", "projected"])
def test_convolution_over_three_inner_indices_matches_the_walk(kind):
    """A few ordered pairs of basis vectors (first and last, last and
    second, a square) on the words of length <= 3, where each product's
    value sums over three inner indices."""
    last = len(tangent_basis(kind, 3).vectors) - 1
    _convolution_matches_the_walk(kind, [(0, last), (last, 1), (2, 2)], 3)


def test_a_product_reads_the_same_from_factors_as_they_are():
    """_factored takes each factor's common denominator out of it once;
    a product of the factors as they are reads the same witnesses, and a
    factor with a value that is not a Laurent polynomial is refused."""
    basis = tangent_basis("r1", 3)
    ps = basis.bundle.geometry.params
    chi = basis.vectors[-1]
    zero = envelope._Factored(basis.bundle, {})
    raw = envelope._Factored(basis.bundle, {(chi, chi): ps.one})
    found = envelope._witnesses({(): (raw, zero)}, 2)
    assert found and found == envelope._witnesses({(): (
        envelope._factored(chi) * envelope._factored(chi), zero)}, 2)
    bad = envelope.eps_functional(basis.bundle).scale(scalar_invert(ps.lam))
    with pytest.raises(scalar_module.DenominatorClass):
        envelope._witnesses({(): (
            envelope._Factored(basis.bundle, {(bad,): ps.one}), zero)}, 2)


def _scale_a_coefficient(side):
    # the second product of the row's lhs, chi_b chi_c with its
    # deformation factor, taken twice
    factors, c = [t for t in side.terms.items() if len(t[0]) == 2][1]
    ps = side.bundle.geometry.params
    return envelope._Factored(side.bundle, {
        **side.terms, factors: c * (ps.one + ps.one)})


def _drop_a_product(side):
    factors = next(t for t in side.terms if len(t) == 2)
    return envelope._Factored(side.bundle, {
        t: c for t, c in side.terms.items() if t != factors})


def _first_unequal(pairs, D):
    """{key: (coords, lhs value, rhs value)} on the first word (shortest,
    then smallest) where the two sides' values differ, each side walked
    on its own, as the keys (key, 0) and (key, 1) of one family: the
    two-side comparison, as a reference that forms no difference."""
    found = {}
    for coords, vals in envelope._walk(
            {(k, n): sides[n] for k, sides in pairs.items() for n in (0, 1)},
            D):
        for k in {k for k, _ in vals}:
            lv, rv = vals.get((k, 0)), vals.get((k, 1))
            if lv != rv and (k not in found or (
                    len(found[k][0]), found[k][0]) > (len(coords), coords)):
                found[k] = (coords, lv, rv)
    return found


WRONG_ROW_WITNESS = {
    "rotation brackets close with metric corrections": "T[1,1]: -2 vs -1",
    "rotations move translations inside the basis": "T[1,•]: 0 vs 1"}


@pytest.mark.parametrize("relation, row, mutate", [
    ("rotation brackets close with metric corrections", (1, 2, 2, 1),
     _scale_a_coefficient),
    ("rotations move translations inside the basis", (2, 1, 2),
     _drop_a_product)])
def test_a_wrong_qlie_row_fails_with_the_witness_of_its_expanded_form(
        relation, row, mutate, monkeypatch):
    """A q-Lie row with one coefficient changed, or one product term
    dropped, fails with the same (word, lhs, rhs) witness that the
    limits of the multiplied-out sides give, each side walked on its
    own, and the other rows still hold."""
    generic = {}                        # each viewed factor: its vector
    view = calculus._view

    def recording(kind, f):
        got = view(kind, f)
        if isinstance(f, envelope.FunctionalElement):
            generic[got] = f
        return got

    with monkeypatch.context() as m:
        m.setattr(calculus, "_view", recording)
        families = calculus._lie_families("r1", 3)
    pairs = {key: sides for key, sides in families.items()
             if key[0] == relation}
    key = (relation,) + row
    pairs[key] = (mutate(pairs[key][0]), pairs[key][1])
    found = envelope._witnesses(pairs, 2)
    assert list(found) == [key]
    assert found == _first_unequal({
        k: tuple(view("r1", _expanded(s, generic)) for s in sides)
        for k, sides in pairs.items()}, 2)
    geom = calculus._bundle(3).geometry
    assert envelope.show_witness(geom, *found[key]) \
        == WRONG_ROW_WITNESS[relation]


def test_a_product_side_with_a_pole_at_r1_still_raises():
    """At r = 1 a pole raises PoleAtOne where it is: a product
    coefficient with a pole when its side is viewed."""
    basis = tangent_basis("r1", 3)
    ps = basis.bundle.geometry.params
    chi, = _viewed(basis.vectors[-1:])
    with pytest.raises(scalar_module.PoleAtOne):
        calculus._view("r1", (chi * chi).scale(scalar_invert(ps.lam)))


def test_a_factor_with_a_pole_at_r1_raises_in_the_walk():
    """A factor whose value on the empty word has a pole (eps / lambda)
    raises PoleAtOne when _convolve walks the factors, though its
    product's coefficient is regular."""
    basis = tangent_basis("r1", 3)
    ps = basis.bundle.geometry.params
    bad = envelope.eps_functional(basis.bundle).scale(scalar_invert(ps.lam))
    chi, pole = _viewed([basis.vectors[-1], bad])
    zero = envelope._Factored(basis.bundle, {})
    with pytest.raises(scalar_module.PoleAtOne):
        envelope._witnesses({(): (calculus._view("r1", chi * pole), zero)},
                            2)
