"""Regular functionals on the embedded orthogonal quantum group and the
enveloping algebra of its inhomogeneous quotient.

The dual algebra is generated by the counit eps and two matrices of
functionals L+, L- whose values on the matrix generators are fixed by the
R matrix of the embedded geometry:

    L+^A_B (T^C_D) = R^{CA}_{DB}      L-^A_B (T^C_D) = (R^{-1})^{AC}_{BD}
    L+-^A_B (I)    = delta^A_B

extended to longer words through L^A_B(ab) = L^A_G(a) L^G_B(b) and to the
whole dual by the convolution product (fg)(a) = (f x g)(Delta a).  A
functional is known on the free words T^{C1}_{D1} ... T^{Ck}_{Dk} of
length k by its evaluation matrix, with rows (C1, ..., Ck) and columns
(D1, ..., Dk), sparse over the exact scalar field.  The tables are the
per-generator evaluation matrices, grown one T letter at a time through
the R matrix; the matrix of a product word is the matrix product of its
letters, and a combination of words is the combination of their
matrices.  Like all derived data of the engine, each table is built on
first use and kept by functools.cache, here per bundle and word length.

Every relation of the envelope suite (exchange, metric orthogonality,
the counit, bullet-row reduction and twist identities) is a family of
equalities lhs = rhs between functionals, one per index key, checked by
comparing the two evaluation matrices at every length k <= D;
functional_equal states the order in which the first disagreement is
reported.  A side may also carry the image of every value under a
scalar morphism (_mapped), which is how the uniparametric collapse
compares values at g_ab = r and the calculi compare limits at r = 1.
The remaining checks (the Hopf pairing axioms and the cone-ideal scan
of iu_annihilates) are ordered families of (key, lhs, rhs) cases that
report their first failure through report.first_failure.

L+ is upper triangular and L- lower triangular.  The functionals that
annihilate the cone ideal (generated by T^a_o, T^*_b, T^*_o) are exactly
eps, the whole of L-, the inner block L+^a_b and the two cone diagonals
L+^o_o, L+^*_*; they pair with the quotient algebra through the fixed
linear section u -> T^o_o, v -> T^*_*, x^a -> T^a_*, T^a_b -> T^a_b of the
projection.  As a right module over the inner-block subalgebra this dual
is spanned by the ordered monomials eta^i = (L-^o_o)^{i_o} (L-^1_o)^{i_1}
... (L-^N_o)^{i_N} with i_o in Z, negative dilatation powers written with
L-^*_* = (L-^o_o)^{-1}.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain, product as iproduct
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .itensor import (IndexGeometry, SparseTensor4, rank6_equal,
                      tensor_equal, triple_compose)
from .presentations import (AlgebraElement, build_presentation, costructure,
                            project, section, unit_element, word_element)
from .report import Report, first_failure
from .rmatrix import RMatrixBundle, build_bundle, inner_lift
from .scalars import (LinearCombination, ParamSpace, Scalar, _acc,
                      canonical_q, merge_deformations, rational_rank,
                      render_scalar, scalar_from_json, scalar_invert,
                      scalar_to_json, specialize, word_key)

Gen = Tuple[int, int, int]            # (sign, A, B); sign +1 for L+, -1 for L-
FunctionalWord = Tuple[Gen, ...]
EPS_WORD: FunctionalWord = ()

__all__ = [
    "FunctionalElement", "FunctionalWord", "Gen", "EPS_WORD", "NotInIU",
    "EqualityResult", "AnnihilationResult",
    "eps_functional", "l_functional", "word_functional",
    "gen_tag", "tag_gen", "show_functional_word",
    "eval_functional", "antipode_L", "coproduct_functional",
    "counit_functional", "functional_equal", "verify_envelope_suite",
    "verify_parameter_collapse", "verify_pairing_axioms",
    "iu_annihilates", "iu_generators", "pairing", "independence_rank",
    "eta_monomials", "script_r_matrix",
    "functional_to_json", "functional_from_json",
]


class NotInIU(Exception):
    """A pairing was requested for a functional that fails to annihilate
    the cone ideal at the configured degree bound."""


def gen_tag(g: Optional[Gen]) -> str:
    if g is None:
        return "eps"
    sign, A, B = g
    return "L%s[%d,%d]" % ("+" if sign > 0 else "-", A, B)


def tag_gen(tag: str) -> Optional[Gen]:
    if tag == "eps":
        return None
    if tag.startswith("L+[") or tag.startswith("L-["):
        a, b = tag[3:-1].split(",")
        return (1 if tag[1] == "+" else -1, int(a), int(b))
    raise ValueError("unknown functional generator tag %r" % (tag,))


def show_functional_word(w: FunctionalWord) -> str:
    if not w:
        return "eps"
    return " ".join(gen_tag(g) for g in w)


class FunctionalElement(LinearCombination):
    """Finite scalar combination of words of L+/L- generators.

    The counit is the empty word; eps letters fed in through JSON are
    absorbed on construction, so words never store unit factors.
    """

    __slots__ = ("bundle",)

    def __init__(self, bundle: RMatrixBundle,
                 terms: Dict[FunctionalWord, Scalar]):
        self.bundle = bundle
        super().__init__(terms)

    def _context(self):
        return (self.bundle,)

    def _mismatch(self, other) -> str:
        if self.bundle is other.bundle:
            return ""
        return "functionals over different R matrix bundles"

    def __repr__(self):
        if not self.terms:
            return "FunctionalElement(0)"
        bits = ["(%s)*%s" % (render_scalar(c), show_functional_word(w))
                for w, c in sorted(self.terms.items(),
                                   key=lambda t: word_key(t[0]))]
        shown = bits[:6]
        if len(bits) > 6:
            shown.append("... %d terms" % len(bits))
        return "FunctionalElement(%s)" % " + ".join(shown)


def eps_functional(bundle: RMatrixBundle) -> FunctionalElement:
    return FunctionalElement(bundle, {EPS_WORD: bundle.geometry.params.one})


def l_functional(bundle: RMatrixBundle, sign: int, A: int,
                 B: int) -> FunctionalElement:
    M = bundle.geometry.dim
    if sign not in (1, -1) or not (1 <= A <= M and 1 <= B <= M):
        raise ValueError("bad functional generator (%r, %r, %r)"
                         % (sign, A, B))
    return FunctionalElement(bundle,
                             {((sign, A, B),): bundle.geometry.params.one})


def word_functional(bundle: RMatrixBundle, w: FunctionalWord,
                    coeff: Optional[Scalar] = None) -> FunctionalElement:
    return FunctionalElement(
        bundle, {tuple(w): coeff if coeff is not None
                 else bundle.geometry.params.one})


# ---------------------------------------------------------------------------
# evaluation engine

def _transfer(bundle: RMatrixBundle, sign: int):
    """Per T-letter transfer: trans[(C, D)][E][F] = R+-^{EC}_{FD}."""
    tensor = bundle.Rplus if sign > 0 else bundle.Rminus
    out: Dict[Tuple[int, int], Dict[int, Dict[int, Scalar]]] = {}
    for (E, C, F, D), v in tensor.items():
        out.setdefault((C, D), {}).setdefault(E, {})[F] = v
    return out


@functools.cache
def _gen_family(bundle: RMatrixBundle, sign: int, k: int):
    """Evaluation matrices at word length k for every generator of one
    sign: fam[(A, B)][Cvec][Dvec] = L^A_B(T^{C1}_{D1}...T^{Ck}_{Dk})."""
    out: Dict[Tuple[int, int], Dict[Tuple, Dict[Tuple, Scalar]]] = {}
    if k == 0:
        for A in bundle.geometry.indices():
            out[(A, A)] = {(): {(): bundle.geometry.params.one}}
    elif k == 1:
        for (C, D), m in _transfer(bundle, sign).items():
            for E, row in m.items():
                for F, v in row.items():
                    out.setdefault((E, F), {}).setdefault((C,), {})[(D,)] = v
    else:
        prev = _gen_family(bundle, sign, k - 1)
        base = _gen_family(bundle, sign, 1)
        by_first: Dict[int, List] = {}
        for (E, B), mat in base.items():
            by_first.setdefault(E, []).append((B, mat))
        for (A, E), mat in prev.items():
            hits = by_first.get(E)
            if hits is None:
                continue
            for B, tail in hits:
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


def _mat_mul(m1, m2):
    out = {}
    for r, row in m1.items():
        acc = {}
        for mid, v in row.items():
            hit = m2.get(mid)
            if hit is None:
                continue
            for c, w in hit.items():
                _acc(acc, c, v * w)
        if acc:
            out[r] = acc
    return out


@functools.cache
def _word_matrix(bundle: RMatrixBundle, w: FunctionalWord, k: int):
    """Evaluation matrix of a product word at T-word length k."""
    if not w:
        one = bundle.geometry.params.one
        return {vec: {vec: one}
                for vec in iproduct(bundle.geometry.indices(), repeat=k)}
    sign, A, B = w[0]
    got = _gen_family(bundle, sign, k).get((A, B), {})
    for sign, A, B in w[1:]:
        got = _mat_mul(got, _gen_family(bundle, sign, k).get((A, B), {}))
    return got


def _element_matrix(e: FunctionalElement, k: int):
    out: Dict[Tuple, Dict[Tuple, Scalar]] = {}
    for w, c in e.terms.items():
        for r, row in _word_matrix(e.bundle, w, k).items():
            dst = out.setdefault(r, {})
            for col, v in row.items():
                _acc(dst, col, c * v)
    for r in list(out):
        if not out[r]:
            del out[r]
    return out


@functools.cache
def _letter_pairs(bundle: RMatrixBundle, alphabet) -> List[Tuple[int, int]]:
    geom = bundle.geometry
    labmap = {geom.label(A): A for A in geom.indices()}
    pairs: List[Tuple[int, int]] = []
    for sym in alphabet.symbols:
        if not (sym.startswith("T[") and sym.endswith("]")):
            raise ValueError("functionals evaluate on the free matrix-entry "
                             "alphabet; got symbol %r" % (sym,))
        a, b = sym[2:-1].split(",")
        pairs.append((labmap[a], labmap[b]))
    return pairs


def eval_functional(f: FunctionalElement, a: AlgebraElement) -> Scalar:
    """Value of a functional on an element of the free matrix-entry
    algebra of the same embedded geometry."""
    bundle = f.bundle
    ps = bundle.geometry.params
    pairs = _letter_pairs(bundle, a.alphabet)
    total = ps.zero
    for xw, xc in a.terms.items():
        coords = [pairs[g] for g in xw]
        Cvec = tuple(c for c, _ in coords)
        Dvec = tuple(d for _, d in coords)
        for fw, fc in f.terms.items():
            v = _word_matrix(bundle, fw, len(Cvec)).get(Cvec, {}).get(Dvec)
            if v is not None and v:
                total = total + fc * xc * v
    return total


# ---------------------------------------------------------------------------
# costructures of the dual

def antipode_L(e: FunctionalElement) -> FunctionalElement:
    """Antimultiplicative antipode: on a generator the metric conjugation
    C^{DA} L^C_D C_{BC} collapses to the single term
    c(A') c(B) L^{B'}_{A'}."""
    bundle = e.bundle
    metric = bundle.C
    pr = bundle.geometry.prime
    out: Dict[FunctionalWord, Scalar] = {}
    for w, c in e.terms.items():
        coeff = c
        gens = []
        for sign, A, B in reversed(w):
            coeff = coeff * metric.c(pr(A)) * metric.c(B)
            gens.append((sign, pr(B), pr(A)))
        _acc(out, tuple(gens), coeff)
    return FunctionalElement(bundle, out)


def coproduct_functional(e: FunctionalElement):
    """Terms of Delta'(e) as (coefficient, left word, right word); on a
    generator Delta'(L^A_B) = L^A_G x L^G_B summed over G."""
    idx = list(e.bundle.geometry.indices())
    out: List[Tuple[Scalar, FunctionalWord, FunctionalWord]] = []
    for w, c in e.terms.items():
        if not w:
            out.append((c, EPS_WORD, EPS_WORD))
            continue
        for mids in iproduct(idx, repeat=len(w)):
            left = tuple((s, A, G) for (s, A, _), G in zip(w, mids))
            right = tuple((s, G, B) for (s, _, B), G in zip(w, mids))
            out.append((c, left, right))
    return out


def counit_functional(e: FunctionalElement) -> Scalar:
    ps = e.bundle.geometry.params
    total = ps.zero
    for w, c in e.terms.items():
        if all(A == B for _, A, B in w):
            total = total + c
    return total


# ---------------------------------------------------------------------------
# equality on free words

class EqualityResult(NamedTuple):
    equal: bool
    witness: Optional[Tuple[Tuple[Tuple[int, int], ...],
                            Optional[Scalar], Optional[Scalar]]]


def show_t_word(geometry: IndexGeometry,
                coords: Tuple[Tuple[int, int], ...]) -> str:
    if not coords:
        return "I"
    return " ".join("T[%s,%s]" % (geometry.label(c), geometry.label(d))
                    for c, d in coords)


def show_witness(geometry: IndexGeometry, coords, lv: Optional[Scalar],
                 rv: Optional[Scalar]) -> str:
    """A disagreeing word and the two values on it, a zero shown as 0."""
    return "%s: %s vs %s" % (show_t_word(geometry, coords),
                             "0" if lv is None else render_scalar(lv),
                             "0" if rv is None else render_scalar(rv))


def _side_matrix(side, k: int):
    return side(k) if callable(side) else _element_matrix(side, k)


def _mapped(side, fn):
    """A relation side whose values are fn of the values of side, zeros
    dropped; fn is a ring morphism of the scalars such as limit_r_to_1
    or merge_deformations."""
    def matrix(k: int):
        out: Dict[Tuple, Dict[Tuple, Scalar]] = {}
        for r, row in _side_matrix(side, k).items():
            for col, v in row.items():
                fv = fn(v)
                if fv:
                    out.setdefault(r, {})[col] = fv
        return out
    return matrix


def _first_difference(pairs: Dict[Tuple, Tuple], D: int):
    """First disagreement of a family of relations lhs = rhs, one per
    index key, on the free words of length <= D, as (key, coords, lhs
    value, rhs value) with None for a zero value; None when every
    relation holds.  A side is a FunctionalElement or a function giving
    its evaluation matrix (no stored zeros) at a word length.  The order
    is the one stated in functional_equal."""
    for k in range(D + 1):
        for key in sorted(pairs):
            lhs, rhs = pairs[key]
            ml, mr = _side_matrix(lhs, k), _side_matrix(rhs, k)
            if ml == mr:
                continue
            diffs = []
            for r in set(ml) | set(mr):
                rl, rr = ml.get(r, {}), mr.get(r, {})
                diffs += [(tuple(zip(r, col)), rl.get(col), rr.get(col))
                          for col in set(rl) | set(rr)
                          if rl.get(col) != rr.get(col)]
            return (key,) + min(diffs, key=lambda d: d[0])
    return None


def functional_equal(f: FunctionalElement, g: FunctionalElement,
                     D: int) -> EqualityResult:
    """Equality of evaluations on every free word of length <= D,
    including the empty word; the witness is the first disagreeing word
    with both values.

    Every relation family compared through _first_difference (this
    function, the envelope suite and the q-Lie relation rows) reports
    its first failure in one order: the smallest word length k, then the
    smallest index key of the family, then the smallest word, comparing
    the words T^{C1}_{D1} ... T^{Ck}_{Dk} by their coordinate tuples
    ((C1, D1), ..., (Ck, Dk))."""
    if f.bundle is not g.bundle:
        raise ValueError("functionals live over different geometries")
    w = _first_difference({(): (f, g)}, D)
    return EqualityResult(w is None, None if w is None else w[1:])


def _detail(geometry: IndexGeometry, w) -> str:
    """Report detail of a relation family: empty when it holds."""
    if w is None:
        return ""
    key, coords, lv, rv = w
    text = show_witness(geometry, coords, lv, rv)
    if not key:
        return text
    return "indices (%s) on %s" % (",".join(map(str, key)), text)


# ---------------------------------------------------------------------------
# relation families

def _any_generator(A: int, B: int) -> bool:
    return True


def _exchange_residual(bundle: RMatrixBundle, Rt: SparseTensor4, s2: int,
                       s1: int, D: int, mask2=_any_generator,
                       mask1=_any_generator):
    """First witness ((A, B, C, D, coords), lhs value, rhs value) of
    Rt_12 L^{s2}_2 L^{s1}_1 = L^{s1}_1 L^{s2}_2 Rt_12 on free words of
    length <= D, or None.  Entry (A, B; C, D) reads
    sum Rt^{AB}_{EF} L^{s2 F}_D L^{s1 E}_C = sum L^{s1 A}_E L^{s2 B}_F
    Rt^{EF}_{CD}; the masks mask2(A, B) and mask1(A, B) restrict the
    L^{s2} and the L^{s1} matrix to a generator support."""
    idx = list(bundle.geometry.indices())
    lhs: Dict[Tuple, Dict[FunctionalWord, Scalar]] = {}
    rhs: Dict[Tuple, Dict[FunctionalWord, Scalar]] = {}
    for (A, B, E, F), v in Rt.items():
        for X in idx:
            for Y in idx:
                # Rt^{AB}_{EF} L^{s2 F}_Y L^{s1 E}_X, left of (A, B; X, Y)
                if mask2(F, Y) and mask1(E, X):
                    _acc(lhs.setdefault((A, B, X, Y), {}),
                         ((s2, F, Y), (s1, E, X)), v)
                # L^{s1 X}_A L^{s2 Y}_B Rt^{AB}_{EF}, right of (X, Y; E, F)
                if mask1(X, A) and mask2(Y, B):
                    _acc(rhs.setdefault((X, Y, E, F), {}),
                         ((s1, X, A), (s2, Y, B)), v)
    w = _first_difference(
        {key: (FunctionalElement(bundle, lhs.get(key, {})),
               FunctionalElement(bundle, rhs.get(key, {})))
         for key in set(lhs) | set(rhs)}, D)
    return None if w is None else (w[0] + (w[1],), w[2], w[3])


def _render_exchange_witness(geometry: IndexGeometry, w) -> str:
    (A, B, C, D, x), lv, rv = w
    lab = geometry.label
    return ("indices (%s,%s;%s,%s) on %s"
            % (lab(A), lab(B), lab(C), lab(D),
               show_witness(geometry, x, lv, rv)))


def _metric_orthogonality(bundle: RMatrixBundle, sign: int, variant: str,
                          mask=_any_generator):
    """Relations {(C, D): (lhs, rhs)} of C^{AB} L^C_B L^D_A = C^{DC} eps
    (variant "upper") or C_{AB} L^B_C L^A_D = C_{DC} eps ("lower"), each
    factor of a summand restricted to the mask."""
    geom = bundle.geometry
    metric = bundle.C
    pr = geom.prime
    eps = eps_functional(bundle)
    pairs = {}
    for C in geom.indices():
        for Dd in geom.indices():
            terms: Dict[FunctionalWord, Scalar] = {}
            for A in geom.indices():
                if variant == "upper":
                    # summed pair: L^C_{A'} convolved with L^D_A
                    g1, g2, coeff = (C, pr(A)), (Dd, A), metric.c(A)
                else:
                    # summed pair: L^{A}_C L^{A'}_D
                    g1, g2, coeff = (A, C), (pr(A), Dd), metric.c(pr(A))
                if mask(*g1) and mask(*g2):
                    _acc(terms, ((sign,) + g1, (sign,) + g2), coeff)
            pairs[(C, Dd)] = (FunctionalElement(bundle, terms),
                              eps.scale(metric.lower(Dd, C)))
    return pairs


# ---------------------------------------------------------------------------
# the script R matrix and the twist

def script_r_matrix(N: int) -> SparseTensor4:
    """Values of the block-diagonal plus matrix on the quotient generator
    matrix, lifted back through the section: entries (A, B, C, D) hold
    the pairing of L+^B_D against the image of T^A_C."""
    p = build_presentation("iso", N)
    big = build_presentation("so", N + 2, embedded=True)
    bundle = build_bundle(big.geometry)
    geom = bundle.geometry
    M = geom.dim
    inner = set(geom.inner())
    entries: Dict[Tuple[int, int, int, int], Scalar] = {}
    for A in geom.indices():
        for C in geom.indices():
            t_entry = project(
                word_element(big.alphabet, geom.params,
                             ((A - 1) * M + (C - 1),)), p)
            if not t_entry:
                continue
            lifted = section(t_entry, p)
            for B in geom.indices():
                for Dd in geom.indices():
                    if B != Dd and not (B in inner and Dd in inner):
                        continue
                    val = eval_functional(l_functional(bundle, 1, B, Dd),
                                          lifted)
                    if val:
                        entries[(A, B, C, Dd)] = val
    return SparseTensor4(geom, entries)


def _script_r_expected(bundle: RMatrixBundle) -> SparseTensor4:
    geom = bundle.geometry
    inner = set(geom.inner())
    entries = {}
    for (A, B, C, D), v in bundle.R.items():
        if (A in inner and B in inner and C in inner and D in inner) \
                or (A, B) == (C, D):
            entries[(A, B, C, D)] = v
    return SparseTensor4(geom, entries)


# ---------------------------------------------------------------------------
# relation suite

def verify_envelope_suite(N: int, D: Optional[int] = None) -> Report:
    """Exchange, orthogonality, reduction and twist identities of the
    functional matrices, checked on all free words of length <= D."""
    if D is None:
        D = 3 if N == 3 else 2
    big = build_presentation("so", N + 2, embedded=True)
    bundle = build_bundle(big.geometry)
    geom = bundle.geometry
    ps = geom.params
    metric = bundle.C
    pr = geom.prime
    M = geom.dim
    inner = list(geom.inner())
    inner_set = set(inner)
    circ, bullet = geom.circ, geom.bullet
    rep = Report("functional relation suite for iso(%d) at degree %d"
                 % (N, D))

    # triangularity: no evaluation matrix below (above) the L+ (L-) diagonal
    bad = []
    for k in range(1, D + 1):
        famp = _gen_family(bundle, 1, k)
        famm = _gen_family(bundle, -1, k)
        for A in geom.indices():
            for B in geom.indices():
                if A > B and famp.get((A, B)):
                    bad.append(("L+", A, B, k))
                if A < B and famm.get((A, B)):
                    bad.append(("L-", A, B, k))
    rep.add("triangularity of the functional matrices", not bad,
            "" if not bad else "nonzero at %r" % (bad[:3],))

    # exchange relations
    for name, s2, s1 in [
            ("exchange relations for two plus rows", 1, 1),
            ("exchange relations for two minus rows", -1, -1),
            ("mixed exchange relations between plus and minus rows", 1, -1)]:
        w = _exchange_residual(bundle, bundle.R, s2, s1, D)
        rep.add(name, w is None,
                "" if w is None else _render_exchange_witness(geom, w))

    # metric orthogonality
    for sign, sname in [(1, "plus"), (-1, "minus")]:
        for variant in ("upper", "lower"):
            w = _first_difference(
                _metric_orthogonality(bundle, sign, variant), D)
            rep.add("%s metric orthogonality of the %s matrix"
                    % (variant, sname), w is None, _detail(geom, w))

    # ordered diagonal product equals the counit
    eps = eps_functional(bundle)
    for sign, sname in [(1, "plus"), (-1, "minus")]:
        word = tuple((sign, A, A) for A in geom.indices())
        w = _first_difference({(): (word_functional(bundle, word), eps)}, D)
        rep.add("ordered diagonal product of the %s matrix equals the counit"
                % sname, w is None, _detail(geom, w))
    if M % 2 == 1:
        mid = (M + 1) // 2
        for sign, sname in [(1, "plus"), (-1, "minus")]:
            w = _first_difference(
                {(): (l_functional(bundle, sign, mid, mid), eps)}, D)
            rep.add("middle diagonal %s functional equals the counit"
                    % sname, w is None, _detail(geom, w))

    # antisymmetrizer annihilates the translation column: for every (a, b)
    # sum P_A^{ab}_{cd} L-^{d}_o L-^{c}_o = 0 (both the projector form and
    # its inverse-parameter plane reading are this contraction)
    small = build_bundle(IndexGeometry(N))
    lift = inner_lift(geom)
    zero = FunctionalElement(bundle, {})
    terms: Dict[Tuple[int, int], Dict[FunctionalWord, Scalar]] = {}
    for (a, b, c, d), v in small.P_A.items():
        _acc(terms.setdefault((a, b), {}),
             ((-1, d + 1, circ), (-1, c + 1, circ)), lift(v))
    w = _first_difference({key: (FunctionalElement(bundle, t), zero)
                           for key, t in terms.items()}, D)
    rep.add("antisymmetrizer annihilates the translation column",
            w is None, _detail(geom, w))
    rep.add("translation column satisfies the inverse-parameter plane "
            "relations", w is None,
            "same contraction as the antisymmetrizer check")

    # bullet-row reductions: L-^*_c = coeff sum_a c(a) L-^{a'}_c L-^a_o L-^*_*
    def bullet_reduction(c, coeff):
        rhs: Dict[FunctionalWord, Scalar] = {}
        for a in inner:
            _acc(rhs, ((-1, pr(a), c), (-1, a, circ), (-1, bullet, bullet)),
                 coeff * metric.c(a))
        return (l_functional(bundle, -1, bullet, c),
                FunctionalElement(bundle, rhs))

    c_ob = metric.lower(circ, bullet)
    c_bo = metric.lower(bullet, circ)
    coeff1 = -scalar_invert(c_ob)
    w = _first_difference({(c,): bullet_reduction(c, coeff1) for c in inner},
                          D)
    rep.add("bullet-row functionals reduce to metric combinations",
            w is None, _detail(geom, w))
    coeff2 = -scalar_invert(ps.s_pow(-4) * c_bo + c_ob)
    w = _first_difference({(): bullet_reduction(circ, coeff2)}, D)
    rep.add("bullet-corner functional reduces to a metric combination",
            w is None, _detail(geom, w))

    def word2(g1, g2, coeff=None):
        return word_functional(bundle, (g1, g2), coeff)

    # dilatation versus the translation column
    w = _first_difference(
        {(a,): (word2((-1, circ, circ), (-1, a, circ)),
                word2((-1, a, circ), (-1, circ, circ),
                      scalar_invert(canonical_q(ps, circ, a))))
         for a in inner}, D)
    rep.add("dilatation exchanges with the translation column",
            w is None, _detail(geom, w))

    # dilatation versus the rotation block; the printed relation has
    # mismatched free indices, so the form checked here is the one the
    # exchange relations force at indices (circ circ, b d)
    w = _first_difference(
        {(sign, b, d): (word2((-1, circ, circ), (sign, b, d)),
                        word2((sign, b, d), (-1, circ, circ),
                              canonical_q(ps, b, circ) * scalar_invert(
                                  canonical_q(ps, d, circ))))
         for sign in (1, -1) for b in inner for d in inner}, D)
    rep.add("dilatation exchanges with the rotation block",
            w is None, "derived exchange form" if w is None
            else _detail(geom, w))

    # translation column versus the rotation block through R, for both
    # signs: L-^a_o L+-^b_d = r/q_{d o} R+-^{ba}_{ef} L+-^e_d L-^f_o
    rfor = {1: bundle.Rplus, -1: bundle.Rminus}
    pairs = {}
    for sign in (1, -1):
        for a in inner:
            for b in inner:
                for d in inner:
                    coeff0 = ps.r * scalar_invert(canonical_q(ps, d, circ))
                    rhs: Dict[FunctionalWord, Scalar] = {}
                    for e in inner:
                        for f in inner:
                            rv = rfor[sign].get((b, a, e, f))
                            if rv:
                                _acc(rhs, ((sign, e, d), (-1, f, circ)),
                                     coeff0 * rv)
                    pairs[(sign, a, b, d)] = (
                        word2((-1, a, circ), (sign, b, d)),
                        FunctionalElement(bundle, rhs))
    w = _first_difference(pairs, D)
    rep.add("translation column exchanges with the rotation block through R",
            w is None, _detail(geom, w))

    # block-diagonal plus matrix
    def block_mask(A, B):
        return A == B or (A in inner_set and B in inner_set)

    w = _exchange_residual(bundle, bundle.R, 1, 1, D, block_mask, block_mask)
    rep.add("block-diagonal plus matrix satisfies the exchange relations",
            w is None, "" if w is None else _render_exchange_witness(geom, w))

    script = script_r_matrix(N)
    ok, tw = tensor_equal(script, _script_r_expected(bundle))
    rep.add("script R matrix reproduces the block table", ok,
            "" if ok else "%r" % (tw,))
    lhs6 = triple_compose([(script, 12), (script, 13), (script, 23)])
    rhs6 = triple_compose([(script, 23), (script, 13), (script, 12)])
    ok, yw = rank6_equal(lhs6, rhs6)
    rep.add("script R matrix satisfies the Yang-Baxter equation", ok,
            "" if ok else "%r" % (yw,))

    w = _exchange_residual(bundle, script, 1, 1, D, block_mask, block_mask)
    rep.add("block exchange relations hold with the script R matrix",
            w is None, "" if w is None else _render_exchange_witness(geom, w))
    # script_12 Lc+_2 L-_1 = L-_1 Lc+_2 script_12, block mask on the plus slot
    w = _exchange_residual(bundle, script, 1, -1, D, mask2=block_mask)
    rep.add("mixed block exchange relations hold with the script R matrix",
            w is None, "" if w is None else _render_exchange_witness(geom, w))

    for variant in ("upper", "lower"):
        w = _first_difference(
            _metric_orthogonality(bundle, 1, variant, block_mask), D)
        rep.add("%s metric orthogonality of the block matrix" % variant,
                w is None, _detail(geom, w))

    # matching diagonal products give the fourth twist power: on the
    # diagonal word T^{C1}_{C1} ... T^{Ck}_{Ck} the value prod f4(A, Ci),
    # zero on every other word
    def twist_power(A):
        # f4(A, C) = (q_AC / r)^2, one on the diagonal because q_AA = r
        roots = {C: canonical_q(ps, A, C) * ps.s_pow(-2)
                 for C in geom.indices()}
        f4 = {C: x * x for C, x in roots.items()}

        def matrix(k):
            out = {}
            for vec in iproduct(geom.indices(), repeat=k):
                v = ps.one
                for C in vec:
                    v = v * f4[C]
                out[vec] = {vec: v}
            return out
        return matrix

    w = _first_difference(
        {(A,): (word2((1, A, A), (-1, A, A)), twist_power(A))
         for A in geom.indices()}, D)
    rep.add("matching diagonal products equal the fourth twist power",
            w is None, _detail(geom, w))
    return rep


# ---------------------------------------------------------------------------
# the uniparametric collapse

def verify_parameter_collapse(N: int, D: Optional[int] = None) -> Report:
    """Matching diagonal plus/minus products versus the counit: the
    multiparametric functionals detect the deformation mismatch, and the
    identification g_ab = s^2 restores the counit identity."""
    if D is None:
        D = 3 if N == 3 else 2
    big = build_presentation("so", N + 2, embedded=True)
    bundle = build_bundle(big.geometry)
    geom = bundle.geometry
    ps = geom.params
    rep = Report("uniparametric collapse of matching diagonal products "
                 "for iso(%d)" % N)
    probe = word_functional(bundle, ((1, 1, 1), (-1, 1, 1)))
    res = functional_equal(probe, eps_functional(bundle), 1)
    detail = ""
    if not res.equal:
        coords, lv, rv = res.witness
        qv = canonical_q(ps, 1, coords[0][0])
        detail = ("witness %s: value %s vs %s, with q_{o,%s} = %s"
                  % (show_t_word(geom, coords),
                     "0" if lv is None else render_scalar(lv),
                     "0" if rv is None else render_scalar(rv),
                     geom.label(coords[0][0]), render_scalar(qv)))
    rep.add("a mismatched deformation parameter breaks the counit identity",
            not res.equal, detail)
    merged_eps = _mapped(eps_functional(bundle), merge_deformations)
    w = _first_difference(
        {(A,): (_mapped(word_functional(bundle, ((1, A, A), (-1, A, A))),
                        merge_deformations), merged_eps)
         for A in geom.indices()}, D)
    rep.add("every matching diagonal product collapses to the counit at "
            "the uniparametric point", w is None, _detail(geom, w))
    return rep


# ---------------------------------------------------------------------------
# the annihilator subalgebra, the pairing and bounded freeness

class AnnihilationResult(NamedTuple):
    ok: bool
    witness: Optional[Tuple[Tuple[Tuple[int, int], ...], Scalar]]


def _h_letters(geometry: IndexGeometry):
    inner = list(geometry.inner())
    hs = {(a, geometry.circ) for a in inner}
    hs |= {(geometry.bullet, b) for b in inner}
    hs.add((geometry.bullet, geometry.circ))
    return hs


def _cone_cases(side, geometry: IndexGeometry, D: int):
    """The nonzero values of a relation side on the free words of length
    1..D with a factor from the cone ideal, as cases (coords, value,
    None) against the zero the annihilation claims; words come by length,
    then row (C1, ..., Ck), then column (D1, ..., Dk)."""
    hset = _h_letters(geometry)
    for k in range(1, D + 1):
        mat = _side_matrix(side, k)
        for r in sorted(mat):
            row = mat[r]
            for col in sorted(row):
                coords = tuple(zip(r, col))
                if any(p in hset for p in coords):
                    yield coords, row[col], None


def iu_annihilates(f: FunctionalElement, N: int,
                   D: int = 2) -> AnnihilationResult:
    """Does f kill every free word of length <= D containing a factor
    from the cone ideal T^a_o, T^*_b, T^*_o?"""
    geom = f.bundle.geometry
    if not (geom.embedded and geom.dim == N + 2):
        raise ValueError("functional is not over the embedded geometry "
                         "of iso(%d)" % N)
    w = first_failure(_cone_cases(f, geom, D))
    return AnnihilationResult(w is None, None if w is None else w[:2])


def iu_generators(bundle: RMatrixBundle) -> List[FunctionalElement]:
    """The generators of the annihilator subalgebra: all of L-, the inner
    block of L+, both cone diagonals of L+, and the counit."""
    geom = bundle.geometry
    out = []
    for A in geom.indices():
        for B in geom.indices():
            out.append(l_functional(bundle, -1, A, B))
    for a in geom.inner():
        for b in geom.inner():
            out.append(l_functional(bundle, 1, a, b))
    out.append(l_functional(bundle, 1, geom.circ, geom.circ))
    out.append(l_functional(bundle, 1, geom.bullet, geom.bullet))
    out.append(eps_functional(bundle))
    return out


def pairing(f: FunctionalElement, pa: AlgebraElement, *,
            check: bool = False, bound: int = 2) -> Scalar:
    """The duality bracket: lift the quotient element through the fixed
    section and evaluate.  With check=True the functional must first
    annihilate the cone ideal at the given bound."""
    geom = f.bundle.geometry
    N = geom.dim - 2
    p = build_presentation("iso", N)
    if not (pa.alphabet is p.alphabet
            or pa.alphabet.symbols == p.alphabet.symbols):
        raise ValueError("pairing argument is not over the iso(%d) alphabet"
                         % N)
    if check:
        res = iu_annihilates(f, N, bound)
        if not res.ok:
            coords, val = res.witness
            raise NotInIU("functional fails on %s with value %s"
                          % (show_t_word(geom, coords), render_scalar(val)))
    return eval_functional(f, section(pa, p))


def eta_monomials(N: int, max_degree: int) -> List[FunctionalWord]:
    """Ordered dilatation-translation monomials of total degree up to the
    bound; negative dilatation powers use the inverse diagonal entry."""
    M = N + 2
    out: List[FunctionalWord] = []

    def vectors(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in vectors(total - head, parts - 1):
                yield (head,) + rest

    for total in range(max_degree + 1):
        for i0 in range(-total, total + 1):
            rem = total - abs(i0)
            head: FunctionalWord = tuple(
                [(-1, 1, 1)] * i0 if i0 >= 0 else [(-1, M, M)] * (-i0))
            for vec in vectors(rem, N):
                w = head
                for a, p in enumerate(vec, start=1):
                    w = w + ((-1, a + 1, 1),) * p
                out.append(w)
    return out


_GENERIC_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _generic_point(ps: ParamSpace) -> Dict[str, Fraction]:
    out = {"s": Fraction(2)}
    for i, name in enumerate(ps.vars[1:]):
        out[name] = Fraction(_GENERIC_PRIMES[i % len(_GENERIC_PRIMES)])
    return out


def independence_rank(ws: Sequence[FunctionalWord], N: int, D: int) -> int:
    """Rank of the evaluation matrix of the given words against all free
    words of length <= D, by exact elimination at a generic rational
    point.  The evaluation entries are Laurent polynomials, so the
    specialization has no poles."""
    bundle = build_bundle(IndexGeometry(N + 2, embedded=True))
    point = _generic_point(bundle.geometry.params)
    rows = []
    for w in ws:
        row = {}
        for k in range(D + 1):
            for r, cols in _word_matrix(bundle, w, k).items():
                for col, v in cols.items():
                    row[(k, r, col)] = specialize(v, point)
        rows.append(row)
    return rational_rank(rows)


# ---------------------------------------------------------------------------
# Hopf pairing axioms

def verify_pairing_axioms(N: int) -> Report:
    """Compatibility of the duality bracket with products, coproducts,
    antipodes and units on every generator pair.  Each axiom is an
    ordered family of cases; the costructures of a quotient letter are
    built once, and so is each bracket on a coproduct factor."""
    p = build_presentation("iso", N)
    big = build_presentation("so", N + 2, embedded=True)
    bundle = build_bundle(big.geometry)
    ps = p.params
    sym = p.alphabet.symbols
    rep = Report("duality bracket axioms for iso(%d)" % N)
    fgens = iu_generators(bundle)
    agens = [p.element({(i,): ps.one}) for i in range(len(p.alphabet))]

    def product_cases():
        cops = [costructure("coproduct", a, p).terms.items() for a in agens]
        words = {w for cop in cops for pair, _ in cop for w in pair}
        val = {(i, w): pairing(f, word_element(p.alphabet, ps, w))
               for i, f in enumerate(fgens) for w in words}
        for i, f in enumerate(fgens):
            for j, g in enumerate(fgens):
                fg = f * g
                for x, a in enumerate(agens):
                    yield (("products vs coproduct at %r, %r on %s",
                            (f, g, sym[x])), pairing(fg, a),
                           sum((c * val[i, w1] * val[j, w2]
                                for (w1, w2), c in cops[x]), ps.zero))

    def coproduct_cases():
        cops = [coproduct_functional(f) for f in fgens]
        words = {w for cop in cops for _, wl, wr in cop for w in (wl, wr)}
        val = {(w, x): pairing(word_functional(bundle, w), a)
               for w in words for x, a in enumerate(agens)}
        for f, cop in zip(fgens, cops):
            for x, a in enumerate(agens):
                for y, b in enumerate(agens):
                    yield (("functional coproduct vs product at %r on %s, %s",
                            (f, sym[x], sym[y])), pairing(f, a * b),
                           sum((c * val[wl, x] * val[wr, y]
                                for c, wl, wr in cop), ps.zero))

    antipodes = [costructure("antipode", a, p) for a in agens]
    unit = unit_element(p.alphabet, ps)
    eps = eps_functional(bundle)
    # each case key is (detail template, its arguments)
    for name, cases in [
            ("product pairing follows the quotient coproduct",
             product_cases()),
            ("functional coproduct follows the quotient product",
             coproduct_cases()),
            ("antipodes are adjoint under the bracket",
             ((("antipodes disagree at %r on %s", (f, sym[x])),
               pairing(kf, a), pairing(f, antipodes[x]))
              for f in fgens for kf in [antipode_L(f)]
              for x, a in enumerate(agens))),
            ("units pair with counits", chain(
                ((("counit mismatch on %s", (sym[x],)), pairing(eps, a),
                  costructure("counit", a, p).terms.get((), ps.zero))
                 for x, a in enumerate(agens)),
                ((("unit mismatch at %r", (f,)), pairing(f, unit),
                  counit_functional(f)) for f in fgens)))]:
        w = first_failure(cases)
        rep.add(name, w is None, "" if w is None else w[0][0] % w[0][1])
    return rep


# ---------------------------------------------------------------------------
# serialization

def functional_to_json(e: FunctionalElement) -> list:
    out = []
    for w in sorted(e.terms, key=word_key):
        tags = [gen_tag(g) for g in w] if w else ["eps"]
        out.append({"word": tags, "coeff": scalar_to_json(e.terms[w])})
    return out


def functional_from_json(bundle: RMatrixBundle, payload) -> FunctionalElement:
    ps = bundle.geometry.params
    terms: Dict[FunctionalWord, Scalar] = {}
    for rec in payload:
        w = tuple(g for g in (tag_gen(t) for t in rec["word"])
                  if g is not None)
        _acc(terms, w, scalar_from_json(ps, rec["coeff"]))
    return FunctionalElement(bundle, terms)
