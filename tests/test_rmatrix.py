"""The multiparametric R-matrix of the orthogonal series, its metric
companions, and the projector decomposition rhat = r P_S - r^-1 P_A
+ r^(1-N) P_0.

Small closed-form entries for dim 3 are pinned exactly; the structural
identities (Yang-Baxter, triangularity, metric conjugation, embedding
block decomposition) run through the suite drivers.
"""

import functools
from fractions import Fraction

import pytest

from qortho.itensor import (IndexGeometry, SparseTensor4, identity_tensor,
                            tensor_equal, triple_compose)
from qortho import cli, rmatrix
from qortho.envelope import verify_envelope_suite
from qortho.rmatrix import (RMatrixBundle, build_bundle, build_R,
                            decompose_embedding, inner_lift, specialized_rank,
                            verify_rmatrix_suite)
from qortho.scalars import ParamSpace, scalar_invert, specialize


def test_r3_entries_pinned():
    g = IndexGeometry(3)
    ps = g.params
    lam = ps.s_pow(2) - ps.s_pow(-2)
    expected = {
        (1, 1, 1, 1): ps.s_pow(2),
        (1, 2, 1, 2): ps.one,
        (1, 3, 1, 3): ps.s_pow(-2),
        (2, 1, 1, 2): lam,
        (2, 1, 2, 1): ps.one,
        (2, 2, 1, 3): -(ps.s_pow(-1) * lam),
        (2, 2, 2, 2): ps.one,
        (2, 3, 2, 3): ps.one,
        (3, 1, 1, 3): lam * (ps.one - ps.s_pow(-2)),
        (3, 1, 2, 2): -(ps.s_pow(-1) * lam),
        (3, 1, 3, 1): ps.s_pow(-2),
        (3, 2, 2, 3): lam,
        (3, 2, 3, 2): ps.one,
        (3, 3, 3, 3): ps.s_pow(2),
    }
    R = build_R(g)
    ok, witness = tensor_equal(R, SparseTensor4(g, expected))
    assert ok, witness


def test_multiparametric_entries_carry_g():
    g = IndexGeometry(4)
    ps = g.params
    R = build_R(g)
    q12 = ps.monomial(1, ps.mono(0, {(1, 2): 1}))
    assert R.get((1, 2, 1, 2)) == ps.r * scalar_invert(q12)
    assert R.get((2, 1, 2, 1)) == q12 * scalar_invert(ps.r)


def test_k_projects_on_metric_pairs():
    g = IndexGeometry(3)
    b = build_bundle(g)
    assert b.K.get((1, 3, 3, 1)) == g.params.one
    assert b.K.get((1, 3, 1, 2)) == g.params.zero


def test_suite_all_green_dim3():
    rep = verify_rmatrix_suite(IndexGeometry(3))
    assert rep.ok
    assert len(rep.checks) == 16
    names = [c.name for c in rep.checks]
    assert "yang-baxter: R12 R13 R23 = R23 R13 R12" in names
    assert "projector completeness: P_S + P_A + P_0 = I" in names
    assert "spectral form: Rhat = r P_S - r^{-1} P_A + r^{1-N} P_0" in names


def test_qybe_detects_perturbation():
    g = IndexGeometry(3)
    R = build_R(g)
    bad = dict(R.entries)
    bad[(1, 2, 1, 2)] = bad[(1, 2, 1, 2)] + g.params.one
    Rb = SparseTensor4(g, bad)
    lhs = triple_compose([(Rb, 12), (Rb, 13), (Rb, 23)])
    rhs = triple_compose([(Rb, 23), (Rb, 13), (Rb, 12)])
    ok, witness = tensor_equal(lhs, rhs)
    assert not ok and witness is not None


def test_uniparametric_specializes_to_identity_at_s1():
    g = IndexGeometry(3)
    U = build_bundle(g).uniparametric.R
    vals = {k: specialize(v, {"s": Fraction(1)}) for k, v in U.entries.items()}
    nz = {k: v for k, v in vals.items() if v}
    assert nz == {(a, b, a, b): Fraction(1)
                  for a in g.indices() for b in g.indices()}


def test_projector_ranks():
    expected = {3: (3, 1, 5), 4: (6, 1, 9), 5: (10, 1, 14)}
    for M, (ra, r0, rs) in expected.items():
        g = IndexGeometry(M)
        b = build_bundle(g)
        assign = {"s": Fraction(3)}
        primes = iter([5, 7, 11, 13, 17, 19])
        for v in g.params.vars[1:]:
            assign[v] = Fraction(next(primes))
        assert specialized_rank(b.P_A, assign) == ra
        assert specialized_rank(b.P_0, assign) == r0
        assert specialized_rank(b.P_S, assign) == rs


def test_embedding_blocks_dim3():
    rep = decompose_embedding(3)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "inner block equals the dimension-3 matrix" in names
    assert "apex cell carries f(r) = lambda (1 - r^{-2 rho})" in names


def test_inner_lift_variable_map():
    g = IndexGeometry(6, embedded=True)
    lift = inner_lift(g)
    small = ParamSpace(4)
    big = g.params
    assert lift(small.s_pow(3)) == big.s_pow(3)
    g12 = small.monomial(1, small.mono(0, {(1, 2): 1}))
    g23 = big.monomial(1, big.mono(0, {(2, 3): 1}))
    assert lift(g12) == g23


def test_inner_lift_requires_embedding():
    with pytest.raises(ValueError):
        inner_lift(IndexGeometry(6))


def test_suite_reports_the_bundle_certificates():
    g = IndexGeometry(4)
    certified = build_bundle(g).certificates
    rep = verify_rmatrix_suite(g)
    assert len(certified) == 4
    for name, (ok, detail) in certified.items():
        check = rep.find(name)
        assert check is not None and ok and check.status == "pass"
        assert check.detail == detail


def test_failed_certificate_raises_in_the_bundle(monkeypatch):
    monkeypatch.setattr(rmatrix, "map_params", lambda X: X)
    with pytest.raises(ArithmeticError,
                       match="inverse by inverting all parameters"):
        RMatrixBundle(IndexGeometry(3))


def test_projector_certificate_names_the_first_bad_product(monkeypatch):
    # moving the identity from P_A to P_S keeps completeness and breaks
    # idempotence of P_S first
    orig = rmatrix.build_projectors

    def shifted(bundle):
        PS, PA, P0 = orig(bundle)
        I = identity_tensor(bundle.geometry)
        return PS + I, PA - I, P0

    monkeypatch.setattr(rmatrix, "build_projectors", shifted)
    bundle = RMatrixBundle(IndexGeometry(3))
    with pytest.raises(ArithmeticError) as exc:
        bundle.P_A
    assert str(exc.value) == (
        "R matrix bundle failed its certificate 'projector orthogonality "
        "and idempotence': P_S P_S at (1, 1, 1, 1): 4 vs 2")


def _record_projector_builds(monkeypatch):
    built = []
    orig = rmatrix.build_projectors

    def recording(bundle):
        built.append((bundle.geometry.dim, bundle.geometry.embedded))
        return orig(bundle)

    monkeypatch.setattr(rmatrix, "build_projectors", recording)
    return built


def test_projectors_are_built_once_on_first_read(monkeypatch):
    built = _record_projector_builds(monkeypatch)
    bundle = RMatrixBundle(IndexGeometry(3))
    assert built == []
    assert bundle.P_A is bundle.P_A
    assert built == [(3, False)]
    assert list(bundle.certificates) == [
        "upper triangularity", "inverse by inverting all parameters",
        "projector completeness: P_S + P_A + P_0 = I",
        "projector orthogonality and idempotence"]
    assert built == [(3, False)]


def test_embedded_bundles_build_no_projectors(monkeypatch):
    built = _record_projector_builds(monkeypatch)
    # fresh bundles, so that every projector read in here is recorded
    monkeypatch.setattr(rmatrix, "_bundle",
                        functools.cache(rmatrix._bundle.__wrapped__))
    assert cli.run(["pair", "--n", "3", "--functional", "L+[1,1] L-[2,2]",
                    "--word", "u u v", "--format", "json"]) == 0
    assert verify_envelope_suite(3, 1).ok
    assert built == [(3, False)]


def _edit_embedded_R(monkeypatch, edit):
    """Patch build_R so that every embedded R passes through edit(entries,
    params) first."""
    orig = rmatrix.build_R

    def edited(geom):
        R = orig(geom)
        if not geom.embedded:
            return R
        ent = dict(R.entries)
        edit(ent, geom.params)
        return SparseTensor4(geom, ent)

    monkeypatch.setattr(rmatrix, "build_R", edited)


def _double(key):
    def edit(ent, ps):
        ent[key] = ent[key] + ent[key]
    return edit


def test_embedding_names_the_first_wrong_diagonal_cell(monkeypatch):
    _edit_embedded_R(monkeypatch, _double((1, 3, 1, 3)))
    rep = decompose_embedding(3)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("mixed diagonal blocks are r/q entries", "at (1, 3, 1, 3): 2 vs 1")]


@pytest.mark.parametrize("key,name,detail", [
    ((2, 1, 1, 2), "mixed swap blocks are lambda delta entries",
     "at (2, 1, 1, 2): 2*s^2 - 2*s^-2 vs s^2 - s^-2"),
    ((5, 1, 5, 1), "cone diagonal carries r and r^{-1}",
     "at (5, 1, 5, 1): 2*s^-2 vs s^-2"),
], ids=["swap", "cone"])
def test_embedding_names_the_first_wrong_cone_cell(monkeypatch, key, name,
                                                   detail):
    _edit_embedded_R(monkeypatch, _double(key))
    rep = decompose_embedding(3)
    assert [(c.name, c.detail) for c in rep.failures()] == [(name, detail)]


def test_embedding_reads_the_whole_inner_block(monkeypatch):
    # an entry the dimension-3 matrix does not have still fails the inner
    # block, and is not reported again as outside the template
    def spurious(ent, ps):
        ent[(2, 3, 3, 2)] = ps.one

    _edit_embedded_R(monkeypatch, spurious)
    rep = decompose_embedding(3)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("inner block equals the dimension-3 matrix",
         "at (2, 3, 3, 2): 1 vs 0")]


def test_embedding_names_the_first_unrestricted_parameter(monkeypatch):
    orig = rmatrix.canonical_q

    def shifted(ps, a, b):
        q = orig(ps, a, b)
        return q + q if ps.dim == 6 and (a, b) == (2, 3) else q

    monkeypatch.setattr(rmatrix, "canonical_q", shifted)
    rep = decompose_embedding(4)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("inner block equals the dimension-4 matrix",
         "at (2, 3, 2, 3): 1/2*s^2*g23^-1 vs s^2*g23^-1"),
        ("inner deformation parameters restrict", "at (1, 2): 2*g23 vs g23")]


def test_embedding_names_the_first_wrong_metric_component(monkeypatch):
    class Doubled(rmatrix.MetricVec):
        def c(self, a):
            v = super().c(a)
            return v + v if self.geometry.embedded and a == 1 else v

    monkeypatch.setattr(rmatrix, "MetricVec", Doubled)
    rep = decompose_embedding(3)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("cone metric components are r^{+-rho}, inner ones restrict",
         "at 1: 2*s^-3 vs s^-3")]


CERTIFICATES = ("upper triangularity", "inverse by inverting all parameters",
                "projector completeness: P_S + P_A + P_0 = I",
                "projector orthogonality and idempotence")


@pytest.mark.parametrize("make", [
    *(functools.partial(build_bundle, IndexGeometry(n)) for n in range(3, 9)),
    lambda: RMatrixBundle(IndexGeometry(5, embedded=True)),
    lambda: build_bundle(IndexGeometry(5, embedded=True)).uniparametric,
], ids=[*("dim%d" % n for n in range(3, 9)), "embedded-dim5",
        "uniparametric-embedded-dim5"])
def test_products_the_certificates_leave_out_hold(make):
    # the bundle forms R Rinv and the off-diagonal projector products
    # only; the products the two lemmas imply are formed here
    bundle = make()
    I = identity_tensor(bundle.geometry)
    assert tensor_equal(rmatrix.tensor_compose(bundle.Rinv, bundle.R), I) \
        == (True, None)
    for P in (bundle.P_S, bundle.P_A, bundle.P_0):
        assert tensor_equal(rmatrix.tensor_compose(P, P), P) == (True, None)
    assert bundle.certificates == {name: (True, "") for name in CERTIFICATES}


def _count_compositions(monkeypatch):
    counted = []
    orig = rmatrix.tensor_compose

    def counting(X, Y):
        counted.append(1)
        return orig(X, Y)

    monkeypatch.setattr(rmatrix, "tensor_compose", counting)
    return counted


def _edit_projectors(monkeypatch, edit):
    orig = rmatrix.build_projectors
    monkeypatch.setattr(rmatrix, "build_projectors",
                        lambda bundle: edit(bundle, *orig(bundle)))


def _shifted(bundle, PS, PA, P0):
    # the mutation of test_projector_certificate_names_the_first_bad_product
    I = identity_tensor(bundle.geometry)
    return PS + I, PA - I, P0


def _doubled(bundle, PS, PA, P0):
    # 2 P_S keeps the three projectors orthogonal and breaks completeness
    return PS + PS, PA, P0


@pytest.mark.parametrize("edit,formed", [
    (None, 6),       # the off-diagonal Pi Pj; the squares follow
    (_shifted, 2),   # P_S P_A fails, then the ordered scan stops at P_S P_S
    (_doubled, 1),   # completeness fails; the scan stops at P_S P_S
], ids=["healthy", "shifted", "doubled"])
def test_projector_certificates_form_only_the_deciding_products(
        monkeypatch, edit, formed):
    if edit is not None:
        _edit_projectors(monkeypatch, edit)
    counted = _count_compositions(monkeypatch)
    bundle = RMatrixBundle(IndexGeometry(3))
    assert len(counted) == 1  # R Rinv
    if edit is None:
        bundle.P_S
    else:
        with pytest.raises(ArithmeticError):
            bundle.P_S
    assert len(counted) == 1 + formed


def test_doubled_symmetric_projector_fails_completeness(monkeypatch):
    _edit_projectors(monkeypatch, _doubled)
    bundle = RMatrixBundle(IndexGeometry(3))
    with pytest.raises(ArithmeticError) as exc:
        bundle.P_0
    assert str(exc.value) == (
        "R matrix bundle failed its certificate 'projector completeness: "
        "P_S + P_A + P_0 = I': at (1, 1, 1, 1): 2 vs 1")


def test_perturbed_inverse_names_the_r_rinv_witness(monkeypatch):
    # perturbed at (2, 2, 2, 2), R Rinv and Rinv R first differ from I at
    # different keys, and the certificate names the first of R Rinv
    key = (2, 2, 2, 2)
    orig = rmatrix.map_params

    def perturbed(X):
        Y = orig(X)
        return Y._like({**Y.entries, key: Y.get(key) + X.geometry.params.one})

    monkeypatch.setattr(rmatrix, "map_params", perturbed)
    g = IndexGeometry(3)
    R, I = build_R(g), identity_tensor(g)
    bad = perturbed(R)
    assert [tensor_equal(rmatrix.tensor_compose(X, Y), I)[1][0]
            for X, Y in ((R, bad), (bad, R))] == [key, (2, 2, 1, 3)]
    with pytest.raises(ArithmeticError) as exc:
        RMatrixBundle(g)
    assert str(exc.value) == (
        "R matrix bundle failed its certificate 'inverse by inverting all "
        "parameters': at (2, 2, 2, 2): 2 vs 1")
