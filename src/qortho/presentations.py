"""Presentations of the quantum orthogonal and inhomogeneous groups.

The free algebras built here carry the matrix entries T^A_B of the
dimension-M orthogonal quantum group, the inhomogeneous generators
u, v, x^a, T^a_b obtained by projecting the dimension-(N+2) group to the
cone, the quantum-plane generators alone, and the exterior generators
dx^a.  Relations are stored as free-algebra elements, each read "= 0":

    so(M):       R^{AB}_{EF} T^E_C T^F_D - T^B_F T^A_E R^{EF}_{CD}
                 T^A_B C^{BC} T^D_C - C^{AD} I
                 T^A_B C_{AC} T^C_D - C_{BD} I
    iso(N):      the inner so(N) block of the above, plus
                 P_A{}^{ab}_{cd} x^c x^d
                 T^b_d x^a - (r/q_{d*}) R^{ab}_{ef} x^e T^f_d
                 T^b_d v - (q_{b*}/q_{d*}) v T^b_d,   x^b v - q_{b*} v x^b
                 u v - I,   v u - I
                 u x^b - q_{b*} x^b u,   u T^b_d - (q_{b*}/q_{d*}) T^b_d u
    plane(N):    P_A{}^{ab}_{cd} x^c x^d
    exterior(N): (1 + r Rhat)^{ab}_{cd} dx^c dx^d

where q_{b*} is the deformation parameter pairing the inner index b with
the bullet cone index.  plane(N) and exterior(N) are one contraction
each of a four-index tensor with the letter pairs, so one function
builds both; exterior's tensor 1 + r Rhat gives
dx^a dx^b + r R^{ba}_{cd} dx^c dx^d, since Rhat^{ab}_{cd} = R^{ba}_{cd}.
The iso(N) presentation also carries the derived expressions

    y_b = -r^{N/2} T^a_b C_{ac} x^c u
    z   = -(r^{-N/2} + r^{N/2-2})^{-1} x^b C_{ba} x^a u

(the projections of T^o_b and T^o_*) as named elements, not generators.
Its inner and plane sectors are the so(N) and plane(N) relations
themselves: every letter is shifted past the letters before it, and every
coefficient is lifted by rmatrix.inner_lift into the parameters of the
embedded dimension-(N+2) geometry.

The coproduct, counit and antipode, and the cone projection P onto
iso(N), extend letter tables over words through one fold.  P inverts the
section and sends the generators of H (IndexGeometry.cone_ideal) to 0.

Words are compared degree first, then lexicographically in the generator
order u < v < x^1 < ... < x^N < T[1,1] < T[1,2] < ... (row-major, the
numbering t_letter gives the so(M) alphabet), so
normal words carry dilatations leftmost, then translations in
nondecreasing order, then matrix entries.  Rewrite rules come from
Gaussian elimination of a sector's degree-two relation span.  The
function that builds a sector's rows also states, in Presentation.pivots
and with its own letter numbering, the order-violating leading words
they must eliminate to; derivation raises IncompleteRules if the
elimination pivots differ from them (Bergman's diamond lemma, Adv. Math.
29 (1978), then certifies confluence through check_confluence).  The
so(M) presentation has no rewrite sector: equality of pure matrix-entry
words is settled by bounded-degree ideal membership, never by rewriting.
"""

from __future__ import annotations

import functools
import itertools
from typing import (Dict, Iterable, Iterator, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

from .itensor import IndexGeometry, SparseTensor4, _by_upper, identity_tensor
from .report import Report, first_failure
from .rmatrix import build_bundle, inner_lift
from .scalars import (LinearCombination, ParamSpace, Scalar, SchemaError,
                      _acc, _terms_from_json, canonical_q, scalar_invert,
                      scalar_to_json, stair_insert, stair_reduce, word_key)

__all__ = [
    "Alphabet", "Word", "AlgebraElement", "TensorElement", "Presentation",
    "RewriteSystem", "MembershipResult", "PresentationError",
    "IncompleteRules", "TopDegreeNotOneDimensional", "NotConfluent",
    "word_key",
    "build_presentation", "derive_rewrite_rules", "merge_rewrite_systems",
    "iso_normal_system", "reduce", "check_confluence", "hilbert_dimension",
    "costructure", "tensor_costructure", "project", "section",
    "ideal_membership", "expand_certificate", "check_hopf_ideal",
    "quantum_determinant", "t_letter", "element_to_json",
    "element_json_terms", "element_from_json",
]

Word = Tuple[int, ...]
EMPTY: Word = ()


class PresentationError(Exception):
    pass


class IncompleteRules(PresentationError):
    pass


class TopDegreeNotOneDimensional(PresentationError):
    pass


class NotConfluent(PresentationError):
    pass


class Alphabet:
    """Ordered generator symbols; position in .symbols is the sort key."""

    __slots__ = ("symbols", "index")

    def __init__(self, symbols: Sequence[str]):
        self.symbols = list(symbols)
        self.index = {s: i for i, s in enumerate(self.symbols)}
        if len(self.index) != len(self.symbols):
            raise ValueError("duplicate generator symbol")

    def word(self, *names: str) -> Word:
        """The word spelled by the symbols; an unknown one is a
        SchemaError at its position."""
        for j, n in enumerate(names):
            if not isinstance(n, str) or n not in self.index:
                raise SchemaError("/%d" % j, "unknown symbol %r; alphabet: %s"
                                  % (n, " ".join(self.symbols)))
        return tuple(self.index[n] for n in names)

    def show_word(self, w: Word) -> str:
        if not w:
            return "I"
        return " ".join(self.symbols[i] for i in w)

    def __len__(self):
        return len(self.symbols)

    def __repr__(self):
        return "Alphabet(%d symbols)" % len(self.symbols)


def _same_alphabet(a: Alphabet, b: Alphabet) -> bool:
    return a is b or a.symbols == b.symbols


class AlgebraElement(LinearCombination):
    """A finite Scalar combination of words in a free algebra."""

    __slots__ = ("alphabet", "ps")

    def __init__(self, alphabet: Alphabet, ps: ParamSpace,
                 terms: Mapping[Word, Scalar]):
        self.alphabet = alphabet
        self.ps = ps
        super().__init__(terms)

    def _context(self):
        return (self.alphabet, self.ps)

    def _mismatch(self, other) -> str:
        if _same_alphabet(self.alphabet, other.alphabet):
            return ""
        return "elements over different alphabets"

    def leading(self) -> Word:
        return max(self.terms, key=word_key)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=word_key):
            bits.append("(%r)*%s" % (self.terms[w], self.alphabet.show_word(w)))
            if len(bits) == 6 and len(self.terms) > 6:
                bits.append("... %d terms" % len(self.terms))
                break
        return " + ".join(bits)


def zero_element(alphabet: Alphabet, ps: ParamSpace) -> AlgebraElement:
    return AlgebraElement(alphabet, ps, {})


def unit_element(alphabet: Alphabet, ps: ParamSpace) -> AlgebraElement:
    return AlgebraElement(alphabet, ps, {EMPTY: ps.one})


def word_element(alphabet: Alphabet, ps: ParamSpace, w: Word,
                 coeff: Optional[Scalar] = None) -> AlgebraElement:
    return AlgebraElement(alphabet, ps, {w: ps.one if coeff is None else coeff})


class TensorElement(LinearCombination):
    """A Scalar combination of word tuples (tensor powers of the algebra);
    products concatenate slot by slot."""

    __slots__ = ("alphabet", "ps", "arity")

    def __init__(self, alphabet: Alphabet, ps: ParamSpace, arity: int,
                 terms: Mapping[Tuple[Word, ...], Scalar]):
        self.alphabet = alphabet
        self.ps = ps
        self.arity = arity
        super().__init__(terms)

    def _context(self):
        return (self.alphabet, self.ps, self.arity)

    def _mismatch(self, other) -> str:
        if self.arity != other.arity:
            return "tensor arities differ"
        if not _same_alphabet(self.alphabet, other.alphabet):
            return "elements over different alphabets"
        return ""

    @staticmethod
    def _join(k1: Tuple[Word, ...], k2: Tuple[Word, ...]) -> Tuple[Word, ...]:
        return tuple(w1 + w2 for w1, w2 in zip(k1, k2))

    def __repr__(self):
        return "TensorElement(arity=%d, terms=%d)" % (self.arity,
                                                      len(self.terms))


class Presentation:
    """A named free algebra with its relation list.

    kind is one of so / iso / plane / exterior.  For so the headline size
    is the matrix dimension M; for the others it is the number N of
    translation-like generators.  Embedded so presentations carry their
    cone labels; IndexGeometry.cone_ideal names the 2N+1 generators of
    the ideal H.  sectors names groups of relations; pivots gives, for
    each sector that derive_rewrite_rules turns into rewrite rules, the
    leading words its elimination must end with.
    """

    __slots__ = ("kind", "name", "N", "geometry", "params", "alphabet",
                 "relations", "sectors", "pivots", "derived")

    def __init__(self, kind, name, N, geometry, params, alphabet, relations,
                 sectors, pivots, derived):
        self.kind = kind
        self.name = name
        self.N = N
        self.geometry = geometry
        self.params = params
        self.alphabet = alphabet
        self.relations = relations
        self.sectors = sectors
        self.pivots = pivots
        self.derived = derived

    def element(self, terms: Mapping[Word, Scalar]) -> AlgebraElement:
        return AlgebraElement(self.alphabet, self.params, terms)

    def __repr__(self):
        return "Presentation(%s, %d generators, %d relations)" % (
            self.name, len(self.alphabet), len(self.relations))


def build_presentation(kind: str, N: int, embedded: bool = False) -> Presentation:
    return _presentation(kind, N, bool(embedded))


@functools.cache
def _presentation(kind: str, N: int, embedded: bool) -> Presentation:
    if kind == "so":
        return _build_so(N, embedded)
    if kind == "iso":
        return _build_iso(N)
    if kind == "plane":
        return _build_quadratic(kind, "x", build_bundle(IndexGeometry(N)).P_A,
                                squares_lead=False)
    if kind == "exterior":
        geom = IndexGeometry(N)
        X = identity_tensor(geom) + build_bundle(geom).Rhat.scale(geom.params.r)
        return _build_quadratic(kind, "dx", X, squares_lead=True)
    raise ValueError("unknown presentation kind %r" % (kind,))


def t_letter(M: int, A: int, B: int) -> int:
    """The letter id of T^A_B in the so(M) alphabet: row-major, from 0."""
    return (A - 1) * M + (B - 1)


def _build_so(M: int, embedded: bool) -> Presentation:
    geom = IndexGeometry(M, embedded=embedded)
    bundle = build_bundle(geom)
    ps = geom.params
    idx = list(geom.indices())
    syms = ["T[%s,%s]" % (geom.label(A), geom.label(B))
            for A in idx for B in idx]
    alphabet = Alphabet(syms)

    t = functools.partial(t_letter, M)
    by_upper = _by_upper(bundle.R)
    by_lower: Dict[Tuple[int, int], List] = {}
    for (A, B, C, D), val in bundle.R.items():
        by_lower.setdefault((C, D), []).append(((A, B), val))

    relations: List[AlgebraElement] = []
    for A in idx:
        for B in idx:
            upper = by_upper.get((A, B), ())
            for C in idx:
                for D in idx:
                    terms: Dict[Word, Scalar] = {}
                    for (E, F), val in upper:
                        _acc(terms, (t(E, C), t(F, D)), val)
                    for (E, F), val in by_lower.get((C, D), ()):
                        _acc(terms, (t(B, F), t(A, E)), -val)
                    row = AlgebraElement(alphabet, ps, terms)
                    if row:
                        relations.append(row)
    metric = bundle.C
    pr = geom.prime
    for A in idx:
        for D in idx:
            terms = {}
            for B in idx:
                _acc(terms, (t(A, B), t(D, pr(B))), metric.c(B))
            _acc(terms, EMPTY, -metric.upper(A, D))
            relations.append(AlgebraElement(alphabet, ps, terms))
    for B in idx:
        for D in idx:
            terms = {}
            for A in idx:
                _acc(terms, (t(A, B), t(pr(A), D)), metric.c(A))
            _acc(terms, EMPTY, -metric.lower(B, D))
            relations.append(AlgebraElement(alphabet, ps, terms))

    return Presentation(
        kind="so", name="so(%d)" % M, N=M, geometry=geom, params=ps,
        alphabet=alphabet, relations=relations,
        sectors={}, pivots={}, derived={})


def _build_iso(N: int) -> Presentation:
    if N < 3:
        raise ValueError("iso presentation needs N >= 3")
    big = IndexGeometry.embedded_from_inner(N)
    bps = big.params
    M = big.dim
    small = IndexGeometry(N)
    sbundle = build_bundle(small)
    # the relations repeat few distinct coefficients: lift each once
    lift = functools.cache(inner_lift(big))
    prs = small.prime

    syms = ["u", "v"] + ["x%d" % a for a in range(1, N + 1)]
    syms += ["T[%d,%d]" % (a, b)
             for a in range(1, N + 1) for b in range(1, N + 1)]
    alphabet = Alphabet(syms)
    iu, iv = 0, 1

    def x(a: int) -> int:
        return 1 + a

    def t(a: int, b: int) -> int:
        return 2 + N + t_letter(N, a, b)

    def shifted(rows: List[AlgebraElement], offset: int) -> List[AlgebraElement]:
        return [AlgebraElement(alphabet, bps, {
                    tuple(g + offset for g in w): lift(c)
                    for w, c in row.terms.items()}) for row in rows]

    def q_bullet(a: int) -> Scalar:
        return canonical_q(bps, a + 1, M)

    cs = {a: lift(sbundle.C.c(a)) for a in small.indices()}
    inner = list(range(1, N + 1))
    swap_rows = shifted(build_presentation("so", N).relations, t(1, 1))
    plane_rows = shifted(build_presentation("plane", N).relations, x(1))

    by_upper = _by_upper(sbundle.R)
    mixed_rows: List[AlgebraElement] = []
    r = bps.r
    for b in inner:
        for d in inner:
            coeff_d = r * scalar_invert(q_bullet(d))
            for a in inner:
                terms = {(t(b, d), x(a)): bps.one}
                for (e, f), val in by_upper.get((a, b), ()):
                    _acc(terms, (x(e), t(f, d)), -(coeff_d * lift(val)))
                mixed_rows.append(AlgebraElement(alphabet, bps, terms))
    for b in inner:
        for d in inner:
            ratio = q_bullet(b) * scalar_invert(q_bullet(d))
            mixed_rows.append(AlgebraElement(alphabet, bps, {
                (t(b, d), iv): bps.one, (iv, t(b, d)): -ratio}))
            mixed_rows.append(AlgebraElement(alphabet, bps, {
                (iu, t(b, d)): bps.one, (t(b, d), iu): -ratio}))

    dil_rows: List[AlgebraElement] = [
        AlgebraElement(alphabet, bps, {(iu, iv): bps.one, EMPTY: -bps.one}),
        AlgebraElement(alphabet, bps, {(iv, iu): bps.one, EMPTY: -bps.one}),
    ]
    for b in inner:
        qb = q_bullet(b)
        dil_rows.append(AlgebraElement(alphabet, bps, {
            (iu, x(b)): bps.one, (x(b), iu): -qb}))
        dil_rows.append(AlgebraElement(alphabet, bps, {
            (x(b), iv): bps.one, (iv, x(b)): -qb}))

    relations = swap_rows + plane_rows + mixed_rows + dil_rows
    sectors = {"plane": plane_rows, "iso-mixed": mixed_rows,
               "dilatation": dil_rows, "inner": swap_rows}
    # normal words read u, v, then the x^a ascending, then the T^a_b: the
    # rules rewrite every adjacent pair out of that order (the inner
    # sector is left to ideal membership)
    xs = [x(a) for a in inner]
    pivots = {
        "plane": {(x(b), x(a)) for b in inner for a in inner if a < b},
        "dilatation": {(iu, iv), (iv, iu)}.union(
            (g, d) for g in xs for d in (iu, iv)),
        "iso-mixed": {(t(a, b), g) for a in inner for b in inner
                      for g in [iu, iv] + xs}}

    derived: Dict[str, AlgebraElement] = {}
    minus_r_rho = -bps.s_pow(N)
    for b in inner:
        terms = {}
        for a in inner:
            terms[(t(a, b), x(prs(a)), iu)] = minus_r_rho * cs[a]
        derived["y%d" % b] = AlgebraElement(alphabet, bps, terms)
    zc = -scalar_invert(bps.s_pow(-N) + bps.s_pow(N - 4))
    terms = {}
    for b in inner:
        terms[(x(b), x(prs(b)), iu)] = zc * cs[b]
    derived["z"] = AlgebraElement(alphabet, bps, terms)

    return Presentation(
        kind="iso", name="iso(%d)" % N, N=N, geometry=big, params=bps,
        alphabet=alphabet, relations=relations, sectors=sectors,
        pivots=pivots, derived=derived)


def _build_quadratic(kind: str, prefix: str, X: SparseTensor4,
                     squares_lead: bool) -> Presentation:
    """The quadratic algebra on letters l^a = prefix + a, numbered a - 1,
    with one relation sum_cd X^{ab}_{cd} l^c l^d per nonzero row (a, b) of
    X, rows in row-major order.  Its one sector is named kind; its
    pivots are the words l^b l^a with b > a, and the squares l^a l^a too
    when squares_lead is set."""
    geom = X.geometry
    ps, N = geom.params, geom.dim
    alphabet = Alphabet(["%s%d" % (prefix, a) for a in geom.indices()])
    rows = [AlgebraElement(alphabet, ps, {(c - 1, d - 1): val
                                          for (c, d), val in entries})
            for _, entries in sorted(_by_upper(X).items())]
    pivots = {(b, a) for b in range(N) for a in range(b + squares_lead)}
    return Presentation(
        kind=kind, name="%s(%d)" % (kind, N), N=N, geometry=geom, params=ps,
        alphabet=alphabet, relations=rows, sectors={kind: list(rows)},
        pivots={kind: pivots}, derived={})


# --- rewrite systems --------------------------------------------------------

class RewriteSystem:
    __slots__ = ("alphabet", "ps", "rules", "sector", "letters", "_nf")

    def __init__(self, alphabet: Alphabet, ps: ParamSpace,
                 rules: Dict[Word, AlgebraElement], sector: str):
        self.alphabet = alphabet
        self.ps = ps
        self.rules = rules
        self.sector = sector
        seen = set()
        for lw, rhs in rules.items():
            seen.update(lw)
            for w in rhs.terms:
                seen.update(w)
        self.letters = tuple(sorted(seen))
        # normal forms live as long as their system: a global cache would
        # keep alive the throwaway systems derive_rewrite_rules builds
        self._nf: Dict[Word, AlgebraElement] = {}

    def __repr__(self):
        return "RewriteSystem(%s, %d rules)" % (self.sector, len(self.rules))


def derive_rewrite_rules(p: Presentation, sector: str) -> RewriteSystem:
    expected = p.pivots.get(sector)
    if expected is None:
        raise ValueError("%s has no rewrite rules for sector %r"
                         % (p.name, sector))
    stair: Dict[Word, Tuple[Dict[Word, Scalar], None]] = {}
    for row in sorted(p.sectors[sector], key=lambda e: word_key(e.leading())):
        stair_insert(stair, dict(row.terms))
    got = set(stair)
    if got != expected:
        show = p.alphabet.show_word
        missing = sorted(expected - got, key=word_key)
        extra = sorted(got - expected, key=word_key)
        raise IncompleteRules(
            "%s sector of %s: missing rules for [%s], unexpected pivots "
            "at [%s]" % (sector, p.name,
                         ", ".join(show(w) for w in missing),
                         ", ".join(show(w) for w in extra)))
    rules: Dict[Word, AlgebraElement] = {}
    for lw, (row, _) in stair.items():
        tail = {w: -c for w, c in row.items() if w != lw}
        rules[lw] = AlgebraElement(p.alphabet, p.params, tail)
    rs = RewriteSystem(p.alphabet, p.params, rules, sector)
    reduced = {lw: reduce(rhs, rs) for lw, rhs in rules.items()}
    return RewriteSystem(p.alphabet, p.params, reduced, sector)


def merge_rewrite_systems(*systems: RewriteSystem) -> RewriteSystem:
    if not systems:
        raise ValueError("nothing to merge")
    first = systems[0]
    rules: Dict[Word, AlgebraElement] = {}
    for rs in systems:
        if not _same_alphabet(rs.alphabet, first.alphabet):
            raise ValueError("rewrite systems over different alphabets")
        for lw, rhs in rs.rules.items():
            if lw in rules and rules[lw] != rhs:
                raise ValueError("conflicting rules for %s"
                                 % first.alphabet.show_word(lw))
            rules[lw] = rhs
    sector = "+".join(rs.sector for rs in systems)
    return RewriteSystem(first.alphabet, first.ps, rules, sector)


def iso_normal_system(p: Presentation) -> RewriteSystem:
    """The combined x/u/v normal-form rules of an iso presentation."""
    if p.kind != "iso":
        raise ValueError("iso_normal_system needs an iso presentation")
    return _normal_system(p)


@functools.cache
def _normal_system(p: Presentation) -> RewriteSystem:
    return merge_rewrite_systems(derive_rewrite_rules(p, "plane"),
                                 derive_rewrite_rules(p, "dilatation"),
                                 derive_rewrite_rules(p, "iso-mixed"))


def _normal_form(rs: RewriteSystem, w: Word) -> AlgebraElement:
    got = rs._nf.get(w)
    if got is not None:
        return got
    hit = None
    for i in range(len(w) - 1):
        rhs = rs.rules.get(w[i:i + 2])
        if rhs is not None:
            hit = (i, rhs)
            break
    if hit is None:
        out = AlgebraElement(rs.alphabet, rs.ps, {w: rs.ps.one})
    else:
        i, rhs = hit
        acc: Dict[Word, Scalar] = {}
        for w2, c2 in rhs.terms.items():
            sub = _normal_form(rs, w[:i] + w2 + w[i + 2:])
            for w3, c3 in sub.terms.items():
                _acc(acc, w3, c2 * c3)
        out = AlgebraElement(rs.alphabet, rs.ps, acc)
    rs._nf[w] = out
    return out


def reduce(e: AlgebraElement, rs: RewriteSystem) -> AlgebraElement:
    acc: Dict[Word, Scalar] = {}
    for w, c in e.terms.items():
        for w2, c2 in _normal_form(rs, w).terms.items():
            _acc(acc, w2, c * c2)
    return AlgebraElement(e.alphabet, e.ps, acc)


def check_confluence(rs: RewriteSystem, p: Presentation) -> Report:
    """The rule shape checks and the degree-3 overlap check of a rewrite
    system; each names its first failure, rules and words taken in
    word_key order."""
    rep = Report("confluence of %s rules for %s" % (rs.sector, p.name))
    show = rs.alphabet.show_word
    leads = sorted(rs.rules, key=word_key)
    w = first_failure(((lw, w), word_key(w) < word_key(lw), True)
                      for lw in leads
                      for w in sorted(rs.rules[lw].terms, key=word_key))
    rep.add("every rule right side precedes its leading word", w is None,
            "" if w is None else "rule %s -> %s" % tuple(map(show, w[0])))
    w = first_failure((lw, len(lw), 2) for lw in leads)
    rep.add("all leading words have degree 2", w is None,
            "" if w is None else "leading word %s" % show(w[0]))

    def rewritten(w: Word, i: int) -> AlgebraElement:
        stepped: Dict[Word, Scalar] = {}
        for w2, c2 in rs.rules[w[i:i + 2]].terms.items():
            _acc(stepped, w[:i] + w2 + w[i + 2:], c2)
        return reduce(AlgebraElement(rs.alphabet, rs.ps, stepped), rs)

    overlaps = [w for w in itertools.product(rs.letters, repeat=3)
                if w[:2] in rs.rules and w[1:] in rs.rules]
    w = first_failure((w, rewritten(w, 0), rewritten(w, 1))
                      for w in overlaps)
    detail = "%d overlapping words examined" % len(overlaps)
    if w is not None:
        detail += "; first failure: " + show(w[0])
    rep.add("all degree-3 overlaps rejoin", w is None, detail)
    return rep


def hilbert_dimension(p: Presentation, rs: RewriteSystem, d: int,
                      letters: Optional[Sequence[str]] = None) -> int:
    if d < 0:
        raise ValueError("negative degree")
    if d == 0:
        return 1
    if letters is None:
        pool = list(rs.letters)
    else:
        pool = sorted(p.alphabet.index[s] for s in letters)
    if any(len(lw) != 2 for lw in rs.rules):
        raise ValueError("hilbert counting needs degree-2 leading words")
    vec = {g: 1 for g in pool}
    for _ in range(d - 1):
        vec = {g: sum(n for h, n in vec.items() if (g, h) not in rs.rules)
               for g in pool}
    return sum(vec.values())


# --- costructures -----------------------------------------------------------

def _extend(table: Sequence[LinearCombination], e: AlgebraElement,
            unit: LinearCombination, reverse: bool = False):
    """The sum, over the terms c w of e, of c times the product of
    table[g] over the letters g of w, taken in reverse order when reverse
    is set: the multiplicative (antimultiplicative) extension of a letter
    table, with unit as the empty product."""
    acc: dict = {}
    for w, c in e.terms.items():
        prod = unit
        for g in (reversed(w) if reverse else w):
            prod = prod * table[g]
        for k, ck in prod.terms.items():
            _acc(acc, k, c * ck)
    return unit._like(acc)


def _so_letter_costructure(p: Presentation) -> Dict[str, list]:
    geom = p.geometry
    ps = p.params
    M = geom.dim
    metric = build_bundle(geom).C
    pr = geom.prime
    idx = geom.indices()
    pairs = [(A, B) for A in idx for B in idx]
    unit, zero = unit_element(p.alphabet, ps), zero_element(p.alphabet, ps)
    return {
        "coproduct": [TensorElement(p.alphabet, ps, 2, {
            ((t_letter(M, A, C),), (t_letter(M, C, B),)): ps.one
            for C in idx}) for A, B in pairs],
        "counit": [unit if A == B else zero for A, B in pairs],
        "antipode": [p.element({(t_letter(M, pr(B), pr(A)),):
                                metric.c(A) * metric.c(pr(B))})
                     for A, B in pairs]}


def _iso_letter_costructure(p: Presentation) -> Dict[str, list]:
    big = build_presentation("so", p.N + 2, embedded=True)
    tables = _letter_costructure(big)

    def down(w: Word):
        return project(big.element({w: big.params.one}), p).terms.items()

    lifted = _section_letters(p, big)
    cop: List[TensorElement] = []
    for G in lifted:
        terms: Dict[Tuple[Word, Word], Scalar] = {}
        for (wl, wr), c in tables["coproduct"][G].terms.items():
            right = down(wr)
            for w1, c1 in down(wl):
                for w2, c2 in right:
                    _acc(terms, (w1, w2), c * c1 * c2)
        cop.append(TensorElement(p.alphabet, p.params, 2, terms))
    return {"coproduct": cop,
            "counit": [project(tables["counit"][G], p) for G in lifted],
            "antipode": [project(tables["antipode"][G], p) for G in lifted]}


@functools.cache
def _letter_costructure(p: Presentation) -> Dict[str, list]:
    if p.kind == "so":
        return _so_letter_costructure(p)
    if p.kind == "iso":
        return _iso_letter_costructure(p)
    raise ValueError("no costructure on %s" % p.name)


# the number of tensor slots that each map's image of a word fills
_WIDTH = {"coproduct": 2, "counit": 0, "antipode": 1}


def _width(op: str) -> int:
    if op not in _WIDTH:
        raise ValueError("unknown costructure %r" % (op,))
    return _WIDTH[op]


def costructure(op: str, e: AlgebraElement, p: Presentation):
    """Apply a costructure map to a free-algebra element.

    coproduct returns an arity-2 TensorElement; counit and antipode
    return AlgebraElements (the counit lands on the identity word).
    The coproduct and counit extend multiplicatively, the antipode
    antimultiplicatively.
    """
    width = _width(op)
    if not _same_alphabet(e.alphabet, p.alphabet):
        raise ValueError("element is not over the %s alphabet" % p.name)
    ps = p.params
    if width == 2:
        unit = TensorElement(p.alphabet, ps, 2, {(EMPTY, EMPTY): ps.one})
    else:
        unit = unit_element(p.alphabet, ps)
    return _extend(_letter_costructure(p)[op], e, unit,
                   reverse=op == "antipode")


def tensor_costructure(te: TensorElement, pos: int, op: str,
                       p: Presentation) -> TensorElement:
    """Apply a costructure map to one tensor factor: the image of its
    word fills the slots (w1, w2), (w,) or () for the coproduct,
    antipode and counit, so the arity rises by one, stays, or falls."""
    width = _width(op)
    if not 0 <= pos < te.arity:
        raise ValueError("factor position out of range")
    ps = te.ps
    acc: Dict[Tuple[Word, ...], Scalar] = {}
    for key, c in te.terms.items():
        factor = AlgebraElement(te.alphabet, ps, {key[pos]: ps.one})
        for k, ci in costructure(op, factor, p).terms.items():
            slots = (k,) if width == 1 else k
            _acc(acc, key[:pos] + slots + key[pos + 1:], c * ci)
    return TensorElement(te.alphabet, ps, te.arity - 1 + width, acc)


# --- the cone projection ----------------------------------------------------

@functools.cache
def _section_letters(p: Presentation, big: Presentation) -> List[int]:
    """iso letter id -> embedded so letter id (the linear section of P),
    in the iso alphabet's order u, v, x^a, T^a_b: u, v and x^a lift to
    T^o_o, T^*_* and T^a_*, and T^a_b to the inner entry."""
    geom = big.geometry
    inner = geom.inner()
    pairs = [(geom.circ, geom.circ), (geom.bullet, geom.bullet)]
    pairs += [(A, geom.bullet) for A in inner]
    pairs += [(A, B) for A in inner for B in inner]
    return [t_letter(geom.dim, A, B) for A, B in pairs]


@functools.cache
def _projection_letters(p: Presentation, big: Presentation) -> List[AlgebraElement]:
    """embedded so letter id -> its image under P as an iso element: the
    section letters go back, T^o_b and T^o_* go to y_b and z, and the
    generators of H stay at zero."""
    geom = big.geometry
    out = [zero_element(p.alphabet, p.params)] * len(big.alphabet)
    for g, G in enumerate(_section_letters(p, big)):
        out[G] = word_element(p.alphabet, p.params, (g,))
    for b in geom.inner():
        out[t_letter(geom.dim, geom.circ, b)] = p.derived["y%d" % (b - 1)]
    out[t_letter(geom.dim, geom.circ, geom.bullet)] = p.derived["z"]
    return out


def project(e: AlgebraElement, target: Presentation) -> AlgebraElement:
    """Push an embedded so(N+2) element down to the iso(N) quotient."""
    if target.kind != "iso":
        raise ValueError("projection target must be an iso presentation")
    big = build_presentation("so", target.N + 2, embedded=True)
    if not _same_alphabet(e.alphabet, big.alphabet):
        raise ValueError("element is not over the embedded so alphabet")
    return _extend(_projection_letters(target, big), e,
                   unit_element(target.alphabet, target.params))


def section(e: AlgebraElement, source: Presentation) -> AlgebraElement:
    """The linear splitting of P: iso words back into embedded so words."""
    if source.kind != "iso":
        raise ValueError("section source must be an iso presentation")
    big = build_presentation("so", source.N + 2, embedded=True)
    if not _same_alphabet(e.alphabet, source.alphabet):
        raise ValueError("element is not over the iso alphabet")
    lifted = _section_letters(source, big)
    return AlgebraElement(
        big.alphabet, big.params,
        {tuple(lifted[g] for g in w): c for w, c in e.terms.items()})


def check_hopf_ideal(N: int) -> Report:
    """The ideal H killing the cone: coideal, counit and antipode checks
    on all 2N+1 generators of the embedded so(N+2) presentation."""
    p = build_presentation("so", N + 2, embedded=True)
    rep = Report("H is a Hopf ideal inside %s" % p.name)
    geom = p.geometry
    gens = [t_letter(geom.dim, A, B) for A, B in geom.cone_ideal()]
    hset = set(gens)
    rep.add("H has 2N+1 generators", len(gens) == 2 * N + 1,
            ", ".join(p.alphabet.symbols[g] for g in gens))
    for g in gens:
        sym = p.alphabet.symbols[g]
        h = p.element({(g,): p.params.one})
        cop = costructure("coproduct", h, p)
        # each coproduct term, in its order, with the factor that lies in H
        terms = [("%s (x) %s" % (p.alphabet.show_word(wl),
                                 p.alphabet.show_word(wr)),
                  "left" if wl and wl[0] in hset
                  else "right" if wr and wr[0] in hset else None)
                 for wl, wr in cop.terms]
        w = first_failure((label, side is not None, True)
                          for label, side in terms)
        rep.add("coproduct of %s splits through H" % sym, w is None,
                "; ".join("%s [%s]" % t for t in terms) if w is None else
                "term outside H: " + w[0])
        eps = costructure("counit", h, p)
        rep.add("counit kills %s" % sym, not eps,
                "" if not eps else "counit gives %r" % (eps,))
        kap = costructure("antipode", h, p)
        in_h = bool(kap.terms) and all(
            len(w) == 1 and w[0] in hset for w in kap.terms)
        rep.add("antipode keeps %s inside H" % sym, in_h,
                ", ".join("%s -> %s" % (sym, p.alphabet.show_word(w))
                          for w in kap.terms))
    return rep


# --- bounded-degree ideal membership ----------------------------------------

class MembershipResult(NamedTuple):
    member: bool
    residue: AlgebraElement
    certificate: Optional[List[Tuple[Scalar, int, Word, Word]]]


def _row_terms(rel: AlgebraElement, w1: Word, w2: Word) -> Dict[Word, Scalar]:
    return {w1 + w + w2: c for w, c in rel.terms.items()}


@functools.cache
def _membership_staircase(p: Presentation, bound: int):
    nlet = len(p.alphabet.symbols)
    rows: List[Tuple[Dict[Word, Scalar], Dict]] = []
    for ridx, rel in enumerate(p.relations):
        if not rel:
            continue
        free = bound - rel.degree()
        if free < 0:
            continue
        for l1 in range(free + 1):
            for w1 in itertools.product(range(nlet), repeat=l1):
                for l2 in range(free - l1 + 1):
                    for w2 in itertools.product(range(nlet), repeat=l2):
                        row = _row_terms(rel, w1, w2)
                        rows.append((row, {(ridx, w1, w2): p.params.one}))
    # sparse rows first: single-word rows only normalize and make every
    # later reduction against their pivot a plain deletion
    rows.sort(key=lambda rc: (len(rc[0]), word_key(max(rc[0], key=word_key))))
    stair: Dict[Word, Tuple[Dict[Word, Scalar], Dict]] = {}
    for row, combo in rows:
        stair_insert(stair, row, combo)
    return stair


def ideal_membership(e: AlgebraElement, p: Presentation,
                     bound: int = 3) -> MembershipResult:
    """Decide whether e lies in the two-sided ideal span at the given
    total degree bound.  A negative answer means only that no witness
    exists within the bound."""
    if e.degree() > bound:
        raise ValueError("element degree %d exceeds bound %d"
                         % (e.degree(), bound))
    res, combo = stair_reduce(_membership_staircase(p, bound), e.terms)
    member = not res
    certificate = None
    if member:
        certificate = [(c, ridx, w1, w2)
                       for (ridx, w1, w2), c in sorted(
                           combo.items(),
                           key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))]
    return MembershipResult(member,
                            AlgebraElement(e.alphabet, e.ps, res),
                            certificate)


def expand_certificate(cert: Sequence[Tuple[Scalar, int, Word, Word]],
                       p: Presentation) -> AlgebraElement:
    """Rebuild the combination named by a membership certificate."""
    acc: Dict[Word, Scalar] = {}
    for c, ridx, w1, w2 in cert:
        for w, v in _row_terms(p.relations[ridx], w1, w2).items():
            _acc(acc, w, c * v)
    return AlgebraElement(p.alphabet, p.params, acc)


# --- the quantum determinant ------------------------------------------------

def _nonzero_normal_forms(rs: RewriteSystem, letters: Sequence[int],
                          length: int) -> Iterator[Tuple[Word, AlgebraElement]]:
    """(w, NF(w)) for every word w of the given length over letters whose
    normal form is nonzero, in the lexicographic order of the letters,
    walked prefix by prefix: NF(u b) = reduce(NF(u) b, rs), and a prefix
    u with NF(u) = 0 is dropped with all of its extensions.  Both rules
    need unique normal forms, which the caller certifies first with
    check_confluence (see quantum_determinant)."""
    def walk(u: Word, nf: AlgebraElement):
        if len(u) == length:
            yield u, nf
            return
        for b in letters:
            ub = reduce(AlgebraElement(rs.alphabet, rs.ps, {
                w + (b,): c for w, c in nf.terms.items()}), rs)
            if ub:
                yield from walk(u + (b,), ub)
    return walk(EMPTY, word_element(rs.alphabet, rs.ps, EMPTY))


def quantum_determinant(N: int) -> AlgebraElement:
    """The coefficient of the volume form in the coaction on dx^1...dx^N,
    as an element of the so(N) presentation: the sum, over the words
    dx^{b_1}...dx^{b_N}, of NF(dx^{b_1}...dx^{b_N}) T^1_{b_1}...T^N_{b_N}
    read on the volume line dx^1...dx^N.

    The words are reduced prefix by prefix (_nonzero_normal_forms), so a
    prefix whose normal form vanishes prunes all of its words.  This is
    exact when normal forms are unique, for then NF(u v) = NF(NF(u) v)
    for all words u, v.  check_confluence certifies that before the walk,
    by Bergman's diamond lemma (Adv. Math. 29, 1978): every rule rewrites
    a degree-2 word to deglex-smaller words, so every reduction ends and
    no leading word contains another, and every degree-3 overlap
    rejoins.  NotConfluent names the first of these checks that fails.
    TopDegreeNotOneDimensional is raised when the degree-N normal words
    are not the volume word alone, or a word's normal form leaves the
    volume line."""
    ext = build_presentation("exterior", N)
    rs = derive_rewrite_rules(ext, "exterior")
    conf = check_confluence(rs, ext)
    if not conf.ok:
        raise NotConfluent("%s: %r" % (conf.title, conf.failures()[0]))
    top = hilbert_dimension(ext, rs, N)
    if top != 1:
        raise TopDegreeNotOneDimensional(
            "exterior(%d) degree-%d component has dimension %d" % (N, N, top))
    vol: Word = tuple(range(N))
    sop = build_presentation("so", N)
    ps = sop.params
    acc: Dict[Word, Scalar] = {}
    for bs, nf in _nonzero_normal_forms(rs, range(N), N):
        stray = [w for w in nf.terms if w != vol]
        if stray:
            raise TopDegreeNotOneDimensional(
                "normal form of %s leaves the volume line: %s"
                % (ext.alphabet.show_word(bs),
                   ext.alphabet.show_word(stray[0])))
        tword = tuple(t_letter(N, a + 1, b + 1) for a, b in enumerate(bs))
        _acc(acc, tword, nf.terms[vol])
    return AlgebraElement(sop.alphabet, ps, acc)


# --- serialization ----------------------------------------------------------

def element_json_terms(e: AlgebraElement) -> Iterator[dict]:
    """The term records of element_to_json, made one at a time."""
    for w in sorted(e.terms, key=word_key):
        yield {"word": [e.alphabet.symbols[g] for g in w],
               "coeff": scalar_to_json(e.terms[w])}


def element_to_json(e: AlgebraElement) -> list:
    return list(element_json_terms(e))


def element_from_json(alphabet: Alphabet, ps: ParamSpace,
                      payload: Iterable[Mapping]) -> AlgebraElement:
    return AlgebraElement(alphabet, ps, _terms_from_json(
        ps, payload, lambda names: alphabet.word(*names)))
