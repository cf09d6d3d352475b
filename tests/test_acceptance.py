"""End-to-end acceptance suite.

Every structural claim the package makes about the deformed orthogonal
and inhomogeneous orthogonal algebras is exercised here at full
strength: exact symbolic parameters, all dimensions in range, zero
tolerance.  Runtime budgets are asserted where a construction is
expected to stay interactive.
"""

import hashlib
import random
import time
from fractions import Fraction
from math import comb

from qortho.calculus import (adjoint_coaction_check, adjoint_entries,
                             leibniz_check, tangent_basis, verify_qlie)
from qortho.cli import _dumps
from qortho.envelope import (_walk, eta_monomials, independence_rank,
                             iu_annihilates, iu_generators,
                             verify_envelope_suite, verify_pairing_axioms,
                             verify_parameter_collapse, word_functional)
from qortho.itensor import IndexGeometry, triple_compose, tensor_equal
from qortho.presentations import (build_presentation, check_confluence,
                                  check_hopf_ideal, derive_rewrite_rules,
                                  hilbert_dimension, iso_normal_system,
                                  merge_rewrite_systems, quantum_determinant,
                                  word_element)
from qortho.rmatrix import (build_R, build_bundle, decompose_embedding,
                            verify_rmatrix_suite)
from qortho.scalars import specialize

_SUITE_CACHE = {}


def _rmatrix_suite(M):
    if M not in _SUITE_CACHE:
        t0 = time.monotonic()
        rep = verify_rmatrix_suite(IndexGeometry(M))
        _SUITE_CACHE[M] = (rep, time.monotonic() - t0)
    return _SUITE_CACHE[M]


def _report_digest(rep):
    """SHA-256 of the report as `--format json` prints it."""
    return hashlib.sha256(_dumps(rep.to_json()).encode()).hexdigest()


def _check(rep, name):
    got = rep.find(name)
    assert got is not None, "missing check %r" % (name,)
    assert got.status == "pass", (name, got.detail)


def test_yang_baxter_holds_symbolically_in_all_dimensions():
    for M in (3, 4, 5, 6):
        g = IndexGeometry(M)
        t0 = time.monotonic()
        R = build_R(g)
        lhs = triple_compose([(R, 12), (R, 13), (R, 23)])
        rhs = triple_compose([(R, 23), (R, 13), (R, 12)])
        ok, witness = tensor_equal(lhs, rhs)
        elapsed = time.monotonic() - t0
        assert ok, (M, witness)
        assert elapsed < 60.0, (M, elapsed)


def test_triangular_inverse_transpose_and_projector_structure():
    names = [
        "upper triangularity",
        "inverse by inverting all parameters",
        "pair transpose = parameter transpose",
        "projector completeness: P_S + P_A + P_0 = I",
        "projector orthogonality and idempotence",
        "spectral form: Rhat = r P_S - r^{-1} P_A + r^{1-N} P_0",
    ]
    for M in (3, 4, 5, 6):
        rep, elapsed = _rmatrix_suite(M)
        for name in names:
            _check(rep, name)
        assert elapsed < 30.0, (M, elapsed)


def test_metric_identities_in_all_dimensions():
    names = [
        "metric conjugation (left) turns Rhat into its inverse",
        "metric conjugation (right) turns Rhat into its inverse",
        "metric conjugation (left) turns Rhat-inverse into its inverse",
        "metric conjugation (right) turns Rhat-inverse into its inverse",
        "metric row contraction: C_ab Rhat^{ab}_{cd} = r^{1-N} C_cd",
        "metric column contraction: Rhat^{ab}_{cd} C^{cd} = r^{1-N} C^ab",
        "below-diagonal entries on metric columns sit at b = a'",
        "below-diagonal entries on metric rows sit at d = c'",
    ]
    for M in (3, 4, 5, 6):
        rep, _ = _rmatrix_suite(M)
        for name in names:
            _check(rep, name)


def test_embedding_block_decomposition():
    for N in (3, 4, 5):
        rep = decompose_embedding(N)
        assert rep.ok, [c.name for c in rep.failures()]
        _check(rep, "inner block equals the dimension-3 matrix"
               if N == 3 else "inner block equals the dimension-%d matrix" % N)
        _check(rep, "apex cell carries f(r) = lambda (1 - r^{-2 rho})")
        _check(rep, "corner row equals -C_cd lambda r^{-rho}")
        _check(rep, "corner column equals -C^{ba} lambda r^{-rho}")


def test_plane_and_dilatation_rewrite_system():
    for N in (3, 4):
        p = build_presentation("iso", N)
        rs = merge_rewrite_systems(derive_rewrite_rules(p, "plane"),
                                   derive_rewrite_rules(p, "dilatation"))
        rep = check_confluence(rs, p)
        assert rep.ok, [c.detail for c in rep.failures()]
        _check(rep, "all degree-3 overlaps rejoin")
        xs = ["x%d" % k for k in range(1, N + 1)]
        for d in range(5):
            assert hilbert_dimension(p, rs, d, letters=xs) == \
                comb(N + d - 1, d), (N, d)


def test_exterior_top_degree_and_classical_determinant():
    for N in (3, 4):
        ext = build_presentation("exterior", N)
        ers = derive_rewrite_rules(ext, "exterior")
        assert hilbert_dimension(ext, ers, N) == 1
        assert hilbert_dimension(ext, ers, N + 1) == 0

    qd = quantum_determinant(3)
    B = qd.alphabet
    classical = {}
    for w, c in qd.terms.items():
        val = specialize(c, {"s": Fraction(1)})
        if val:
            classical[tuple(B.symbols[i] for i in w)] = val
    perms = {
        (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
        (1, 3, 2): -1, (2, 1, 3): -1, (3, 2, 1): -1,
    }
    want = {tuple("T[%d,%d]" % (i + 1, p[i]) for i in range(3)): sign
            for p, sign in perms.items()}
    assert classical == want


def test_translation_rows_generate_a_hopf_ideal():
    for N in (3, 4):
        rep = check_hopf_ideal(N)
        assert rep.ok, [c.name for c in rep.failures()]
        assert len(rep.checks) == 1 + 3 * (2 * N + 1)
        got = rep.find("H has 2N+1 generators")
        assert got is not None and got.status == "pass"


def test_envelope_relation_suites():
    t0 = time.monotonic()
    rep3 = verify_envelope_suite(3, 3)
    rep4 = verify_envelope_suite(4, 2)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, elapsed
    # the two middle-diagonal checks exist only for the odd series
    assert len(rep3.checks) == 27 and len(rep4.checks) == 25
    for rep in (rep3, rep4):
        assert rep.ok, [c.name for c in rep.failures()]
        for name in (
            "exchange relations for two plus rows",
            "mixed exchange relations between plus and minus rows",
            "upper metric orthogonality of the plus matrix",
            "ordered diagonal product of the plus matrix equals the counit",
            "translation column satisfies the inverse-parameter plane "
            "relations",
            "bullet-row functionals reduce to metric combinations",
            "dilatation exchanges with the rotation block",
            "translation column exchanges with the rotation block through R",
            "script R matrix satisfies the Yang-Baxter equation",
            "block exchange relations hold with the script R matrix",
            "matching diagonal products equal the fourth twist power",
        ):
            _check(rep, name)
    # byte pins of the two reports (digests of the same checks as
    # `verify --suite envelope --n 3` / `--n 4` emit)
    assert _report_digest(rep3) == ("aba405d334d31098ca93346214225d94"
                                    "14b33fc6173f9a6f69b01c6c77a45959")
    assert _report_digest(rep4) == ("cd588f6c2f50d3e0895cfc91656d2543"
                                    "e51fbd6c761a009b601101b3548475fd")


def test_mismatched_parameters_break_the_counit_identity():
    rep = verify_parameter_collapse(3)
    assert rep.ok
    broken = rep.find("a mismatched deformation parameter breaks the "
                      "counit identity")
    assert broken is not None and broken.status == "pass"
    assert "witness" in broken.detail
    collapsed = rep.find("every matching diagonal product collapses to the "
                         "counit at the uniparametric point")
    assert collapsed is not None and collapsed.status == "pass"
    # the report bytes (digest taken before the collapse check became a
    # relation family)
    assert _report_digest(rep) == ("f35d3a2cb183f70cde79d09181bb79f8"
                                   "6c7493fd8a4f873b438eee9d3c30aa2c")


def test_annihilator_generators_and_excluded_functionals():
    N = 3
    M = N + 2
    bundle = build_bundle(IndexGeometry(M, embedded=True))
    gens = iu_generators(bundle)
    assert len(gens) == 37
    for f in gens:
        res = iu_annihilates(f, N, D=3)
        assert res.ok, res.witness

    excluded = ([(1, 1, b + 1) for b in range(1, N + 1)] +
                [(1, a + 1, M) for a in range(1, N + 1)] +
                [(1, 1, M)])
    for gen in excluded:
        res = iu_annihilates(word_functional(bundle, (gen,)), N, D=2)
        assert not res.ok and res.witness is not None, gen


def test_random_ideal_words_are_invisible_to_the_annihilator():
    N = 3
    geom = IndexGeometry(N + 2, embedded=True)
    bundle = build_bundle(geom)
    gens = iu_generators(bundle)
    h_letters = sorted(geom.cone_ideal())
    all_pairs = [(a, b) for a in geom.indices() for b in geom.indices()]

    rng = random.Random(0)
    words = []
    while len(words) < 100:
        extra = rng.randint(0, 2)
        left = rng.randint(0, extra)
        h = rng.choice(h_letters)
        words.append(tuple(rng.choice(all_pairs) for _ in range(left)) +
                     (h,) +
                     tuple(rng.choice(all_pairs)
                           for _ in range(extra - left)))

    # the evaluation matrix of every generator at each length, read off
    # one walk of the words of length <= 3
    mats = {m: [{} for _ in gens] for m in (1, 2, 3)}
    for coords, vals in _walk(dict(enumerate(gens)), 3):
        if coords:
            row, col = tuple(zip(*coords))
            for i, v in vals.items():
                mats[len(coords)][i].setdefault(row, {})[col] = v
    detections = 0
    checked = 0
    for w in words:
        row = tuple(a for a, _ in w)
        col = tuple(b for _, b in w)
        layer = mats[len(w)]
        for mf in layer:
            rf = mf.get(row)
            if rf is None:
                continue
            if rf.get(col):
                detections += 1
            checked += 1
            for mg in layer:
                total = None
                for mid, vf in rf.items():
                    rg = mg.get(mid)
                    if rg is None:
                        continue
                    vg = rg.get(col)
                    if vg is None:
                        continue
                    term = vf * vg
                    total = term if total is None else total + term
                if total:
                    detections += 1
                checked += 1
    assert detections == 0 and checked == 62244

    axioms = verify_pairing_axioms(3)
    assert axioms.ok, [c.name for c in axioms.failures()]
    # the report bytes (digest taken before the axioms became case
    # families)
    assert _report_digest(axioms) == ("e11124261336d5a3a25a6919506b667d"
                                      "f9124c1c28a543174f18ad1c46ef82ae")


def test_functional_monomials_are_independent():
    ms = eta_monomials(3, 2)
    assert len(ms) == 20
    assert independence_rank(ms, 3, 3) == 20


def test_projected_tangent_vector_relations():
    for N in (3, 4):
        rep = verify_qlie("projected", N, 2)
        assert rep.ok, [(c.name, c.detail) for c in rep.failures()]
        _check(rep, "tangent vectors annihilate the cone ideal")
        _check(rep, "rotation-row functionals fail on the cone ideal")
        _check(rep, "circle vector exchanges with a translation")
        _check(rep, "translations scale under the dilatation")
        _check(rep, "circle vector scales under the dilatation")
        _check(rep, "antisymmetrized translation products vanish")
        _check(rep, "circle vector reduces to a metric square of "
                    "translations")


def test_rotation_augmented_relations_after_the_limit():
    basis = tangent_basis("r1", 3)   # construction takes every limit
    assert len(basis.vectors) == 7
    rep = verify_qlie("r1", 3, 2)
    assert rep.ok, [(c.name, c.detail) for c in rep.failures()]
    _check(rep, "tangent vectors annihilate the cone ideal after the limit")
    _check(rep, "cone cross terms vanish entrywise in the limit")
    _check(rep, "rotation brackets close with metric corrections")
    _check(rep, "rotations move translations inside the basis")
    _check(rep, "translations exchange with a deformation ratio")
    _check(rep, "rotations commute with the dilatation")
    _check(rep, "translations shift under the dilatation")
    _check(rep, "mirror tangent vectors are proportional")
    assert _report_digest(rep) == ("1b208933bc59f2fe5b6bd90c841962ff"
                                   "ec26efa280328114fee8b30ae5458b5f")


def test_leibniz_rule_through_bimodule_commutation():
    basis = tangent_basis("projected", 3)
    p = build_presentation("iso", 3)
    A, ps = p.alphabet, p.params
    for n1 in A.symbols:
        for n2 in A.symbols:
            a = word_element(A, ps, A.word(n1))
            b = word_element(A, ps, A.word(n2))
            ok, witness = leibniz_check(basis, a, b)
            assert ok, (n1, n2, witness)


def test_adjoint_coaction_entries():
    rep = adjoint_coaction_check(3)
    assert rep.ok, [(c.name, c.detail) for c in rep.failures()]
    assert len(rep.checks) == 9

    p = build_presentation("iso", 3)
    A, ps = p.alphabet, p.params
    entries = {ent.indices: ent.value for ent in adjoint_entries(3)}
    vsq = word_element(A, ps, A.word("v", "v"))
    assert entries[(1, 1)] == vsq
    zero = word_element(A, ps, (), ps.zero)
    assert entries[(1, 2)] == zero          # circle against a rotation
    assert entries[(1, 5)] == zero          # circle against the bullet
