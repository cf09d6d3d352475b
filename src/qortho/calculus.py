"""Projected bicovariant differential calculi on the inhomogeneous
orthogonal quantum group.

The f functionals f^{A1}_{A2 B1, B2} = k'(L+^{B1}_{A1}) L-^{A2}_{B2} and
the tangent candidates chi^A_B = (1/lambda)[f^C_{C A, B} - delta^A_B eps]
are convolution combinations of the regular functionals.  Exactly three
of the chi's annihilate the cone ideal at generic deformation
parameters: the translations chi^*_b, the circle vector chi^*_o and the
dilatation chi^*_*.  They close on a q-Lie algebra, define the exterior
differential da = (chi_i * a) omega^i with chi_i * a = (id x chi_i)
Delta(a), and carry the bimodule rule omega^i a = (f^i_j * a) omega^j
with f^i_j = k'(L+^*_*) L-^i_j; the dual one-forms coact through the
projected adjoint entries P(T^*_* k(T^D_B)).

At the uniparametric point r = 1 the rotation block joins: the limits of
(1/lambda)[sum_c f^c_{c a, b} - delta^a_b eps] annihilate the cone ideal
because the obstruction term (1/lambda) f^*_{* a, b} vanishes entrywise
in the limit.  Which calculus reads a functional through the limit is
decided in one place, _view: at r = 1 every functional is read as the
walk side envelope._mapped(f, limit_r_to_1), whose value on a T-word,
and whose bracket with an element, is the exact s -> 1 limit of the
generic-parameter value.  scalars.limit_r_to_1 gets the Laurent value
together with the side's common-denominator scale and reads the limit
of their product off Taylor coefficients at s = 1 without forming the
product; a bracket is summed over its words before the limit is taken,
so poles paired across words cancel first.  The limit is never taken on
a functional as a symbolic object.  The cone-ideal check at r = 1 is
the scan of envelope.iu_annihilates run over those limited values, and
like every other check here it reports its first failing
case, in the order of envelope._first_difference for relations between
functionals (the q-Lie relations read envelope._first of one shared
walk) and of report.first_failure otherwise.

The q-Lie relations chi chi - kappa chi chi = sum c chi are never
multiplied out into words of four L letters: each side stays a
combination of the tangent vectors and their products
(envelope._Factored), and envelope._witnesses reads it from the values
of the tangent vectors alone, a product's value on a T-word being the
convolution of its factors' values over the coproduct of the word.
Like the walk, that convolution reads its sides through
envelope._compile and multiplies through the one kernel of scalars; the
tangent vectors' values are kept, as Laurent numerators, for one check only.
At r = 1 the rows are stated between the limits of the tangent vectors,
and the limit is a ring morphism on the functions regular at s = 1, so
a product side has the limit sum lim(c) prod lim(f): each vector is
read through _view once, each coefficient is replaced by its limit in
_view, and every row is walked as one difference side with no map,
like the projected rows.  PoleAtOne fires on a factor value or a
coefficient; a side, a sum of coefficients times convolutions of factor
values, can have a pole only if one of those has.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from .envelope import (FunctionalElement, antipode_L, eps_functional,
                       iu_annihilates, l_functional, show_t_word,
                       show_witness, _brackets, _cone_witness, _factored,
                       _Factored, _first, _first_difference, _mapped, _walk,
                       _witnesses)
from .itensor import IndexGeometry
from .presentations import (AlgebraElement, build_presentation, costructure,
                            iso_normal_system, project, reduce, section,
                            t_letter, unit_element, word_element,
                            zero_element)
from .report import Report, first_failure
from .rmatrix import build_bundle, inner_lift
from .scalars import (Scalar, _acc, canonical_q, limit_r_to_1,
                      scalar_invert, stair_insert, stair_reduce)

__all__ = [
    "TangentBasis", "AdjointEntry", "build_f", "build_chi", "tangent_basis",
    "verify_qlie", "lie_rows", "differential", "bimodule_commute",
    "leibniz_check", "adjoint_entries", "adjoint_coaction_check",
    "structure_constants",
]


def _bundle(N: int):
    return build_bundle(IndexGeometry(N + 2, embedded=True))


def build_f(A1: int, A2: int, B1: int, B2: int, N: int) -> FunctionalElement:
    """f^{A1}_{A2 B1, B2}: the antipoded plus generator convolved with a
    minus generator."""
    bundle = _bundle(N)
    return antipode_L(l_functional(bundle, 1, B1, A1)) \
        * l_functional(bundle, -1, A2, B2)


def build_chi(A: int, B: int, N: int) -> FunctionalElement:
    """chi^A_B = (1/lambda)[sum_C f^C_{C A, B} - delta^A_B eps]."""
    return _chi(A, B, N, _bundle(N).geometry.indices())


def _chi(A: int, B: int, N: int, over) -> FunctionalElement:
    """(1/lambda)[sum over C in over of f^C_{C A, B} - delta^A_B eps].

    Summands with a triangularly vanishing factor (C < A or C < B: L+
    below or L- above the diagonal) evaluate to zero on every word and
    are dropped, so the bullet-row vectors come out as single f terms.
    Over all indices this is chi^A_B; over the inner block it is the
    rotation-block candidate with the cone term dropped, whose
    evaluations acquire tangent-vector meaning at r = 1; over the single
    index max(A, B) it represents, off the antidiagonal, the r = 1
    tangent vector of the embedded group at generic parameters."""
    bundle = _bundle(N)
    acc = FunctionalElement(bundle, {})
    for C in over:
        if C >= A and C >= B:
            acc = acc + build_f(C, C, A, B, N)
    if A == B:
        acc = acc - eps_functional(bundle)
    return acc.scale(scalar_invert(bundle.geometry.params.lam))


def _view(kind: str, f):
    """How the calculus of this kind reads f: at r = 1 a functional
    through the exact s -> 1 limit of every value and bracket, and a
    _Factored, whose factors are viewed already, through the limits of
    its coefficients; in the projected calculus f as it is."""
    if kind == "r1" and isinstance(f, _Factored):
        return f._like({t: limit_r_to_1(c) for t, c in f.terms.items()})
    return _mapped(f, limit_r_to_1) if kind == "r1" else f


class TangentBasis:
    """Labeled tangent vectors of one of the two calculi.  Vectors are
    generic-parameter FunctionalElements; those of the r = 1 basis only
    become tangent vectors when read through _view."""

    __slots__ = ("kind", "N", "bundle", "labels", "vectors")

    def __init__(self, kind: str, N: int, labels: List[str],
                 vectors: List[FunctionalElement]):
        self.kind = kind
        self.N = N
        self.bundle = _bundle(N)
        self.labels = labels
        self.vectors = vectors

    def __len__(self) -> int:
        return len(self.vectors)


def tangent_basis(kind: str, N: int) -> TangentBasis:
    M = N + 2
    if kind == "projected":
        labels = ["omega[%d]" % b for b in range(1, N + 1)]
        vectors = [build_chi(M, b + 1, N) for b in range(1, N + 1)]
        labels += ["omega[o]", "omega[*]"]
        vectors += [build_chi(M, 1, N), build_chi(M, M, N)]
        return TangentBasis(kind, N, labels, vectors)
    if kind == "r1":
        labels: List[str] = []
        vectors: List[FunctionalElement] = []
        inner = _bundle(N).geometry.inner()
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                if a + b > N + 1:
                    labels.append("Omega[%d,%d]" % (a, b))
                    vectors.append(_chi(a + 1, b + 1, N, inner))
        for b in range(1, N + 1):
            labels.append("Omega[*,%d]" % b)
            vectors.append(build_chi(M, b + 1, N))
        labels.append("Omega[*,*]")
        vectors.append(build_chi(M, M, N))
        # a pole here would break the limit claim
        for _ in _walk({i: _view(kind, v) for i, v in enumerate(vectors)}, 1):
            pass
        return TangentBasis(kind, N, labels, vectors)
    raise ValueError("unknown calculus kind %r" % (kind,))


# ---------------------------------------------------------------------------
# relation tables

def _degree(D: Optional[int]) -> int:
    """The word-length bound of the q-Lie checks: D when given, else 2."""
    return 2 if D is None else D


def _lie_families(kind: str, N: int) -> Dict[Tuple, Tuple]:
    """Every q-Lie relation instance of the chosen calculus, built once,
    as {(relation,) + indices: (lhs, rhs)} in row order.  Each side is a
    combination of the tangent vectors and of their products kept
    factored (envelope._Factored), so _witnesses reads it from the
    vectors' values by the coproduct, without multiplying a product out.
    At r = 1 each distinct vector is read through _view once, as one
    factor with coefficient 1, and each side's coefficients through
    _view when the side is complete: the limit is a ring morphism on the
    values regular at s = 1, so the side is the sum of the limited
    coefficients times the products of the limited factors, an ordinary
    side with no map."""
    bundle = _bundle(N)
    geom = bundle.geometry
    ps = geom.params
    M = geom.dim
    lam = ps.lam
    zero = _Factored(bundle, {})
    small = build_bundle(IndexGeometry(N))
    smetric = small.C
    spr = small.geometry.prime
    lift = inner_lift(geom)
    pairs: Dict[Tuple, Tuple] = {}

    def add(relation: str, indices, lhs, rhs):
        pairs[(relation,) + indices] = (_view(kind, lhs), _view(kind, rhs))

    def q(A, B):
        return canonical_q(ps, A, B)

    if kind == "projected":
        chi_b = {b: _factored(build_chi(M, b + 1, N))
                 for b in range(1, N + 1)}
        chi_o = _factored(build_chi(M, 1, N))
        chi_s = _factored(build_chi(M, M, N))
        for b in range(1, N + 1):
            coeff = scalar_invert(q(M, b + 1))
            add("circle vector exchanges with a translation", (b,),
                chi_o * chi_b[b],
                (chi_b[b] * chi_o).scale(coeff * coeff))
        for c in range(1, N + 1):
            add("translations scale under the dilatation", (c,),
                chi_b[c] * chi_s - (chi_s * chi_b[c]).scale(ps.s_pow(-4)),
                chi_b[c].scale(-ps.s_pow(-2)))
        add("circle vector scales under the dilatation", (),
            chi_o * chi_s - (chi_s * chi_o).scale(ps.s_pow(-8)),
            chi_o.scale((ps.one + ps.s_pow(4)) * (-ps.s_pow(-6))))
        for c in range(1, N + 1):
            for d in range(1, N + 1):
                acc = zero
                for (a, b, cc, dd), v in small.P_A.items():
                    if (cc, dd) != (c, d):
                        continue
                    acc = acc + (chi_b[b] * chi_b[a]).scale(
                        q(M, a + 1) * lift(v))
                add("antisymmetrized translation products vanish", (c, d),
                    acc, zero)
        coeff0 = lam * (-ps.s_pow(N)) * scalar_invert(
            ps.s_pow(4) + ps.s_pow(2 * N))
        rhs = zero
        for d in range(1, N + 1):
            rhs = rhs + (chi_b[spr(d)] * chi_b[d]).scale(
                coeff0 * scalar_invert(q(d + 1, M)) * lift(smetric.c(d)))
        add("circle vector reduces to a metric square of translations", (),
            chi_o + (chi_o * chi_s).scale(lam), rhs)
        return pairs

    if kind == "r1":
        views: Dict[FunctionalElement, _Factored] = {}

        def vector(f):      # one factor per distinct vector, walked once
            if f not in views:
                views[f] = _Factored(bundle, {(_view(kind, f),): ps.one})
            return views[f]

        chi_in = {(a, b): vector(_chi(a + 1, b + 1, N, geom.inner()))
                  for a in range(1, N + 1) for b in range(1, N + 1)}
        chi_t = {b: vector(build_chi(M, b + 1, N)) for b in range(1, N + 1)}
        chi_s = vector(build_chi(M, M, N))

        def qs(a, b):
            return q(a + 1, b + 1)

        for c1 in range(1, N + 1):
            for c2 in range(1, N + 1):
                for b1 in range(1, N + 1):
                    for b2 in range(1, N + 1):
                        lhs = chi_in[(c1, c2)] * chi_in[(b1, b2)] \
                            - (chi_in[(b1, b2)] * chi_in[(c1, c2)]).scale(
                                qs(b1, c2) * qs(c1, b1)
                                * qs(b2, c1) * qs(c2, b2))
                        rhs = zero
                        if c1 == b2:
                            rhs = rhs - chi_in[(b1, c2)].scale(
                                qs(b1, c2) * qs(c2, b2) * qs(b2, b1))
                        cv = smetric.lower(b2, c2)
                        if cv:
                            rhs = rhs + chi_in[(b1, spr(c1))].scale(
                                qs(c1, b1) * qs(b2, b1) * lift(cv))
                        cv = smetric.upper(c1, b1)
                        if cv:
                            rhs = rhs + chi_in[(spr(b2), c2)].scale(
                                qs(c2, b2) * qs(b1, c2) * lift(cv))
                        if b1 == c2:
                            rhs = rhs - chi_in[(spr(b2), spr(c1))].scale(
                                qs(b2, c1))
                        add("rotation brackets close with metric "
                            "corrections", (c1, c2, b1, b2), lhs, rhs)
        for c1 in range(1, N + 1):
            for c2 in range(1, N + 1):
                ratio = q(c1 + 1, M) * scalar_invert(q(c2 + 1, M))
                for b2 in range(1, N + 1):
                    lhs = chi_in[(c1, c2)] * chi_t[b2] \
                        - (chi_t[b2] * chi_in[(c1, c2)]).scale(
                            ratio * qs(b2, c1) * qs(c2, b2))
                    rhs = zero
                    cv = smetric.lower(b2, c2)
                    if cv:
                        rhs = rhs + chi_t[spr(c1)].scale(ratio * lift(cv))
                    if c1 == b2:
                        rhs = rhs - chi_t[c2].scale(ratio * qs(c2, c1))
                    add("rotations move translations inside the basis",
                        (c1, c2, b2), lhs, rhs)
        for c2 in range(1, N + 1):
            for b2 in range(1, N + 1):
                ratio = q(b2 + 1, M) * scalar_invert(q(c2 + 1, M))
                add("translations exchange with a deformation ratio",
                    (c2, b2), chi_t[c2] * chi_t[b2],
                    (chi_t[b2] * chi_t[c2]).scale(ratio * qs(c2, b2)))
        for c1 in range(1, N + 1):
            for c2 in range(1, N + 1):
                add("rotations commute with the dilatation", (c1, c2),
                    chi_in[(c1, c2)] * chi_s, chi_s * chi_in[(c1, c2)])
        for c2 in range(1, N + 1):
            add("translations shift under the dilatation", (c2,),
                chi_t[c2] * chi_s - chi_s * chi_t[c2],
                -chi_t[c2])

        # each mirror vector is the lhs of one row and the rhs of another
        mirror = {(A, B): zero if B == geom.prime(A)   # the antidiagonal
                  else vector(_chi(A, B, N, (max(A, B),)))
                  for A in geom.indices() for B in geom.indices()}
        for A, B in mirror:
            add("mirror tangent vectors are proportional", (A, B),
                mirror[geom.prime(B), geom.prime(A)],
                mirror[A, B].scale(-q(A, B)))
        return pairs

    raise ValueError("unknown calculus kind %r" % (kind,))


def lie_rows(kind: str, N: int, D: Optional[int] = None) -> List[dict]:
    """Every q-Lie relation instance of the chosen calculus as a row
    {relation, indices, status, witness?}; all rows are checked in one
    walk, each reporting its own first witness."""
    geom = _bundle(N).geometry
    pairs = _lie_families(kind, N)
    found = _witnesses(pairs, _degree(D))
    rows = []
    for key in pairs:
        row = {"relation": key[0], "indices": list(key[1:]),
               "status": key not in found}
        if key in found:
            row["witness"] = show_witness(geom, *found[key])
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# deformed brackets and structure constants

def _letter(big, A: int, B: int) -> AlgebraElement:
    """The letter T^A_B of the free algebra of the embedded group."""
    return word_element(big.alphabet, big.params,
                        (t_letter(big.geometry.dim, A, B),))


def _letter_values(f) -> Dict[Tuple[int, int], Scalar]:
    """The nonzero letter values {(A, C): f(T^A_C)} of a functional or a
    walk side."""
    return {coords[0]: vals[()] for coords, vals in _walk({(): f}, 1)
            if coords and () in vals}


def _brackets_on_letters(basis: TangentBasis, f: FunctionalElement
                         ) -> List[Dict[Tuple[int, int], Scalar]]:
    """[f, g](T^A_C) for every basis vector g, through the adjoint
    coaction of the embedded group: g on the sum over B, D of f(T^B_D)
    k(T^A_B) T^D_C, all read from one walk, each g through _view.  The
    coaction takes the generic-parameter values of f; at r = 1 the limit
    is taken of each whole bracket, so that paired poles cancel first."""
    big = build_presentation("so", basis.N + 2, embedded=True)
    idx = list(big.geometry.indices())
    fvals = _letter_values(f)
    kappa = {(A, B): costructure("antipode", _letter(big, A, B), big)
             for A in idx for B in {B for B, _ in fvals}}
    vals = _brackets({j: _view(basis.kind, g)
                      for j, g in enumerate(basis.vectors)}, {
        (A, C): sum(((kappa[A, B] * _letter(big, D, C)).scale(fv)
                     for (B, D), fv in fvals.items()),
                    zero_element(big.alphabet, big.params))
        for A in idx for C in idx})
    out: List[Dict[Tuple[int, int], Scalar]] = [{} for _ in basis.vectors]
    for j, AC in sorted(vals):
        out[j][AC] = vals[j, AC]
    return out


def structure_constants(basis: TangentBasis):
    """Constants C_ij^k with [chi_i, chi_j] = C_ij^k chi_k, solved from
    the adjoint brackets on single letters by reducing each bracket on
    the staircase of the basis columns (a column in the span of earlier
    ones gets no constant); raises ValueError if some bracket leaves the
    span."""
    one = basis.bundle.geometry.params.one
    stair: dict = {}
    for k, v in enumerate(basis.vectors):
        stair_insert(stair, _letter_values(_view(basis.kind, v)), {k: one})
    out = []
    for i, vi in enumerate(basis.vectors):
        for j, bracket in enumerate(_brackets_on_letters(basis, vi)):
            res, combo = stair_reduce(stair, bracket)
            if res:
                raise ValueError(
                    "bracket of %s and %s leaves the tangent span"
                    % (basis.labels[i], basis.labels[j]))
            out += [(i, j, k, combo[k]) for k in sorted(combo)]
    return out


# ---------------------------------------------------------------------------
# relation suite

def verify_qlie(kind: str, N: int, D: Optional[int] = None) -> Report:
    """The q-Lie relations of the chosen calculus, the cone-ideal
    annihilation of its tangent vectors, and degree-one closure of the
    deformed brackets."""
    D = _degree(D)
    rep = Report("%s tangent-vector relations for iso(%d) at degree %d"
                 % ("projected" if kind == "projected" else "r = 1",
                    N, D))
    basis = tangent_basis(kind, N)
    bundle = basis.bundle
    geom = bundle.geometry
    M = geom.dim

    w = first_failure((label, _cone_witness(_view(kind, v), geom, D), None)
                      for label, v in zip(basis.labels, basis.vectors))
    rep.add("tangent vectors annihilate the cone ideal"
            + (" after the limit" if kind == "r1" else ""), w is None,
            "" if w is None else "%s on %s" % (w[0],
                                               show_t_word(geom, w[1][0])))
    if kind == "projected":
        results = [iu_annihilates(build_chi(a + 1, M, N), N, D)
                   for a in range(1, N + 1)]
        w = first_failure((a, res.ok, False)
                          for a, res in enumerate(results, start=1))
        rep.add("rotation-row functionals fail on the cone ideal",
                w is None, "witnesses: %s" % "; ".join(
                    show_t_word(geom, res.witness[0]) for res in results)
                if w is None else "row %d annihilates it" % w[0])
    else:
        lam_inv = scalar_invert(geom.params.lam)
        zero = FunctionalElement(bundle, {})
        w = _first_difference(
            {(a, b): (_view(kind, build_f(M, M, a + 1, b + 1, N).scale(
                lam_inv)), zero)
             for a in range(1, N + 1) for b in range(1, N + 1)}, D)
        rep.add("cone cross terms vanish entrywise in the limit",
                w is None, "" if w is None else "f at %r on %s" % (
                    w[0], show_t_word(geom, w[1])))

    pairs = _lie_families(kind, N)
    found = _witnesses(pairs, D)
    for relation in dict.fromkeys(key[0] for key in pairs):
        w = _first({k: v for k, v in found.items() if k[0] == relation})
        rep.add(relation, w is None, "" if w is None else "indices %r, %s" % (
            w[0][1:], show_witness(geom, *w[1:])))

    try:
        constants = structure_constants(basis)
        rep.add("deformed brackets close on the basis at degree one", True,
                "%d nonzero constants" % len(constants))
    except ValueError as exc:
        rep.add("deformed brackets close on the basis at degree one", False,
                str(exc))
    return rep


# ---------------------------------------------------------------------------
# differential, bimodule rule, Leibniz

def _star(fs: Dict, a: AlgebraElement, p) -> Dict[object, AlgebraElement]:
    """f * a = (id x f) Delta(a) for every functional or walk side f of
    fs, by key, in iso normal form."""
    ps = p.params
    cop = costructure("coproduct", a, p).terms
    vals = _brackets(fs, {w2: section(word_element(p.alphabet, ps, w2), p)
                          for _, w2 in cop})
    acc: Dict[object, Dict] = {key: {} for key in fs}
    for (w1, w2), c in cop.items():
        for key in fs:
            if (key, w2) in vals:
                _acc(acc[key], w1, c * vals[key, w2])
    rs = iso_normal_system(p)
    return {key: reduce(AlgebraElement(p.alphabet, ps, t), rs)
            for key, t in acc.items()}


def differential(a: AlgebraElement,
                 basis: TangentBasis) -> List[Tuple[AlgebraElement, str]]:
    """da = (chi_i * a) omega^i with chi_i * a = (id x chi_i) Delta(a);
    coefficients come back in iso normal form, one per basis label."""
    p = build_presentation("iso", basis.N)
    stars = _star({i: _view(basis.kind, v)
                   for i, v in enumerate(basis.vectors)}, a, p)
    return [(stars[i], label) for i, label in enumerate(basis.labels)]


def bimodule_commute(basis: TangentBasis,
                     a: AlgebraElement) -> List[List[AlgebraElement]]:
    """The matrix (f^i_j * a) moving one-forms across an element:
    omega^i a = (f^i_j * a) omega^j, with f^i_j = k'(L+^*_*) L-^i_j."""
    if basis.kind != "projected":
        raise ValueError("the r = 1 basis is evaluated through limits; "
                         "its bimodule matrix is not materialized")
    N = basis.N
    M = N + 2
    idx = [b + 1 for b in range(1, N + 1)] + [1, M]
    stars = _star({(I, J): build_f(M, I, M, J, N) for I in idx for J in idx},
                  a, build_presentation("iso", N))
    return [[stars[I, J] for J in idx] for I in idx]


def leibniz_check(basis: TangentBasis, a: AlgebraElement,
                  b: AlgebraElement):
    """d(ab) against (da) b + a (db) with the one-form commutation rule;
    returns (ok, witness) with the first disagreeing label."""
    p = build_presentation("iso", basis.N)
    rs = iso_normal_system(p)
    direct = differential(a * b, basis)
    da = differential(a, basis)
    db = differential(b, basis)
    fmat = bimodule_commute(basis, b)
    w = first_failure(
        (label, direct[j][0],
         reduce(sum((da[i][0] * fmat[i][j] for i in range(len(da))),
                    a * db[j][0]), rs))
        for j, label in enumerate(basis.labels))
    return w is None, w


# ---------------------------------------------------------------------------
# adjoint coaction entries

class AdjointEntry(NamedTuple):
    indices: Tuple[int, int]
    value: AlgebraElement


def adjoint_entries(N: int) -> List[AdjointEntry]:
    """P(T^*_* k(T^D_B)) for all embedded (B, D), in iso normal form;
    these are the coaction coefficients of the projected one-forms."""
    p = build_presentation("iso", N)
    big = build_presentation("so", N + 2, embedded=True)
    rs = iso_normal_system(p)
    geom = big.geometry
    top = _letter(big, geom.dim, geom.dim)
    out = []
    for B in geom.indices():
        for D in geom.indices():
            kappa = costructure("antipode", _letter(big, D, B), big)
            out.append(AdjointEntry(
                (B, D), reduce(project(top * kappa, p), rs)))
    return out


def adjoint_coaction_check(N: int) -> Report:
    """The projected adjoint entries against their closed forms: the
    squared v corner, the two vanishing columns, metric-contracted
    translations, antipoded rotation letters, the metric square of
    translations, antipoded translations and the unit."""
    p = build_presentation("iso", N)
    big = build_presentation("so", N + 2, embedded=True)
    rs = iso_normal_system(p)
    geom = big.geometry
    ps = geom.params
    M = geom.dim
    small = build_bundle(IndexGeometry(N))
    spr = small.geometry.prime
    got = {e.indices: e.value for e in adjoint_entries(N)}

    def iso_word(*symbols):
        return word_element(p.alphabet, ps,
                            tuple(p.alphabet.index[s] for s in symbols))

    def iso_kappa(sym):
        return costructure("antipode", iso_word(sym), p)

    v = "v"
    zero = zero_element(p.alphabet, ps)
    expected: Dict[Tuple[int, int], AlgebraElement] = {}
    expected[(1, 1)] = iso_word(v, v)
    expected[(1, M)] = zero
    expected[(M, M)] = unit_element(p.alphabet, ps)
    for d in range(1, N + 1):
        expected[(1, d + 1)] = zero
        expected[(d + 1, M)] = zero
        expected[(M, d + 1)] = iso_word(v) * iso_kappa("x%d" % d)
    for b in range(1, N + 1):
        acc = zero
        for e in range(1, N + 1):
            cv = small.C.lower(e, b)
            if cv:
                acc = acc + (iso_word(v, "x%d" % e)).scale(
                    ps.s_pow(-N) * inner_lift(geom)(cv))
        expected[(b + 1, 1)] = acc
        for d in range(1, N + 1):
            expected[(b + 1, d + 1)] = iso_word(v) * iso_kappa(
                "T[%d,%d]" % (d, b))
    acc = zero
    coeff = -scalar_invert(ps.s_pow(3 * N) + ps.s_pow(N + 4))
    for e in range(1, N + 1):
        acc = acc + iso_word("x%d" % e, "x%d" % spr(e)).scale(
            coeff * inner_lift(geom)(small.C.c(e)))
    expected[(M, 1)] = acc

    groups = [
        ("circle-circle entry equals v squared", [(1, 1)]),
        ("circle-rotation entries vanish",
         [(1, d + 1) for d in range(1, N + 1)]),
        ("circle-bullet entry vanishes", [(1, M)]),
        ("rotation-circle entries give metric-contracted translations",
         [(b + 1, 1) for b in range(1, N + 1)]),
        ("rotation-rotation entries give antipoded rotation letters",
         [(b + 1, d + 1) for b in range(1, N + 1)
          for d in range(1, N + 1)]),
        ("rotation-bullet entries vanish",
         [(b + 1, M) for b in range(1, N + 1)]),
        ("bullet-circle entry gives the metric square of translations",
         [(M, 1)]),
        ("bullet-rotation entries give antipoded translations",
         [(M, d + 1) for d in range(1, N + 1)]),
        ("bullet-bullet entry equals the unit", [(M, M)]),
    ]
    rep = Report("adjoint coaction entries of the projected calculus "
                 "for iso(%d)" % N)
    for name, cells in groups:
        w = first_failure((cell, got[cell], reduce(expected[cell], rs))
                          for cell in cells)
        rep.add(name, w is None,
                "" if w is None else "entry (%s,%s)" % (
                    geom.label(w[0][0]), geom.label(w[0][1])))
    return rep
